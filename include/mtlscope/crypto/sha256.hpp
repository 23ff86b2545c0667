// SHA-256 (FIPS 180-4). Self-contained implementation used for certificate
// fingerprints, container/state/checkpoint trailers, and as the primitive
// behind the tsig toy signature scheme. Full 64-byte blocks go through a
// block kernel chosen once per process from CPUID: the x86 SHA extensions
// (SHA-NI) when present, otherwise the portable FIPS 180-4 reference.
// Both produce the same digests bit for bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mtlscope::crypto {

class Sha256;

namespace detail {

/// Compresses `count` consecutive 64-byte blocks at `blocks` (any
/// alignment) into the eight-word chaining `state`.
using BlockKernel = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                             std::size_t count);

/// The portable FIPS 180-4 kernel: the reference, and the path on CPUs
/// without SHA extensions.
BlockKernel portable_kernel();
/// The SHA-NI kernel, or nullptr when this CPU (or build target) lacks it.
BlockKernel shani_kernel();
/// A hasher pinned to `kernel` instead of the process-wide choice. For the
/// kernel parity tests; production code constructs Sha256 directly.
Sha256 sha256_with_kernel(BlockKernel kernel);

}  // namespace detail

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(data1);
///   h.update(data2);
///   auto digest = h.finish();   // 32 bytes
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs more input. May be called any number of times before finish().
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Completes the hash. The hasher must not be reused afterwards
  /// (construct a fresh one instead).
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view data);

 private:
  friend Sha256 detail::sha256_with_kernel(detail::BlockKernel kernel);
  explicit Sha256(detail::BlockKernel kernel);

  detail::BlockKernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104) — used by the tsig scheme.
Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);

}  // namespace mtlscope::crypto
