#include "mtlscope/colfmt/arena.hpp"

namespace mtlscope::colfmt {

Str::Str(std::string_view s) : Str(StringArena::global().intern(s)) {}

StringArena& StringArena::global() {
  static StringArena* arena = new StringArena();  // never destroyed:
  return *arena;  // interned views must outlive all static consumers
}

CertArena& CertArena::global() {
  static CertArena* arena = new CertArena();
  return *arena;
}

Str StringArena::intern(std::string_view s) {
  if (s.empty()) return Str("", 0);

  const std::size_t hash = ViewHash{}(s);
  Shard& shard = shards_[hash % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mu);

  const auto it = shard.set.find(s);
  if (it != shard.set.end()) {
    return Str(it->data(), static_cast<std::uint32_t>(it->size()));
  }

  // Miss: copy into stable storage (+1 for the NUL that makes c_str()
  // valid). Oversize strings get a dedicated chunk so a >64 KiB DN
  // never forces the bump allocator's chunk size up.
  const std::size_t need = s.size() + 1;
  if (need > shard.remaining) {
    const std::size_t chunk = need > chunk_bytes_ ? need : chunk_bytes_;
    shard.chunks.push_back(std::make_unique<char[]>(chunk));
    shard.cursor = shard.chunks.back().get();
    shard.remaining = chunk;
  }
  char* dst = shard.cursor;
  std::memcpy(dst, s.data(), s.size());
  dst[s.size()] = '\0';
  shard.cursor += need;
  shard.remaining -= need;

  shard.set.insert(std::string_view(dst, s.size()));
  return Str(dst, static_cast<std::uint32_t>(s.size()));
}

}  // namespace mtlscope::colfmt
