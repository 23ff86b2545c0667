#include "mtlscope/crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MTLSCOPE_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define MTLSCOPE_SHA256_X86 0
#endif

namespace mtlscope::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

void process_block(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void portable_blocks(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) process_block(state, blocks + 64 * i);
}

#if MTLSCOPE_SHA256_X86
// The Intel SHA extensions: sha256rnds2 runs two rounds on the state held
// as ABEF/CDGH halves, sha256msg1/msg2 extend the message schedule four
// words at a time. Group g (rounds 4g..4g+3) consumes schedule register
// w[g % 4]; groups 3..14 finish the next register, 1..12 start the one
// after. All loads are unaligned, so any input offset is valid.
__attribute__((target("sha,sse4.1"))) void shani_blocks(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (std::size_t n = 0; n < count; ++n, blocks += 64) {
    const __m128i abef_saved = abef;
    const __m128i cdgh_saved = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          byteswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g]));
      __m128i msg = _mm_add_epi32(w[g & 3], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g < 15) {
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g & 3], w[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g >= 1 && g < 13) {
        w[(g - 1) & 3] = _mm_sha256msg1_epu32(w[(g - 1) & 3], w[g & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_saved);
    cdgh = _mm_add_epi32(cdgh, cdgh_saved);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_SHA) != 0;
}
#endif

}  // namespace

namespace detail {

BlockKernel portable_kernel() { return &portable_blocks; }

BlockKernel shani_kernel() {
#if MTLSCOPE_SHA256_X86
  // CPUID runs once per process; every hasher reuses the answer.
  static const bool available = cpu_has_shani();
  return available ? &shani_blocks : nullptr;
#else
  return nullptr;
#endif
}

Sha256 sha256_with_kernel(BlockKernel kernel) { return Sha256(kernel); }

}  // namespace detail

Sha256::Sha256()
    : Sha256(detail::shani_kernel() != nullptr ? detail::shani_kernel()
                                               : detail::portable_kernel()) {}

Sha256::Sha256(detail::BlockKernel kernel) : kernel_(kernel), state_(kInit) {}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      kernel_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    kernel_(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256::Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + buffer_len_, buffer_.end(), 0);
    kernel_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + buffer_len_, buffer_.begin() + 56, 0);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  kernel_(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest Sha256::hash(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const auto d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(std::span<const std::uint8_t>(ipad.data(), ipad.size()));
  inner.update(message);
  const auto inner_digest = inner.finish();
  Sha256 outer;
  outer.update(std::span<const std::uint8_t>(opad.data(), opad.size()));
  outer.update(std::span<const std::uint8_t>(inner_digest.data(),
                                             inner_digest.size()));
  return outer.finish();
}

}  // namespace mtlscope::crypto
