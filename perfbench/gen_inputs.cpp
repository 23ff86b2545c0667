// perfbench_gen: writes one benchmark input set from a seed.
//
//   perfbench_gen OUT_DIR --seed=N --cert-scale=X --conn-scale=Y [--sorted]
//       [--prepare=EXPERIMENT] [--shape-only]
//
// OUT_DIR receives ssl.log and x509.log (Zeek TSV, from
// gen::paper_model at the given scales), hdr_ssl.log / hdr_x509.log
// (the same headers with no rows, for set-up timing) and shape.json,
// written last, which records the input shape. --sorted writes ssl.log
// in timestamp order (the order a live Zeek appends it); otherwise rows
// keep the generator's order, which is not time-sorted. --prepare applies
// an experiment's model adjustments first, as a synthetic run does, and
// --shape-only writes the headers and shape.json but not the rows.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>

#include "mtlscope/experiments/registry.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace mtlscope;
namespace fs = std::filesystem;

namespace {

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// The leading '#' lines of a Zeek log.
std::string header_of(const std::string& log) {
  std::size_t pos = 0;
  while (pos < log.size() && log[pos] == '#') {
    const std::size_t nl = log.find('\n', pos);
    if (nl == std::string::npos) return log;
    pos = nl + 1;
  }
  return log.substr(0, pos);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s OUT_DIR --seed=N --cert-scale=X --conn-scale=Y "
                 "[--sorted]\n",
                 argv[0]);
    return 2;
  }
  std::uint64_t seed = 1;
  double cert_scale = 2'000;
  double conn_scale = 25'000;
  bool sorted = false;
  bool shape_only = false;
  std::string prepare;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--cert-scale=", 13) == 0) {
      cert_scale = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--conn-scale=", 13) == 0) {
      conn_scale = std::atof(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--sorted") == 0) {
      sorted = true;
    } else if (std::strcmp(argv[i], "--shape-only") == 0) {
      shape_only = true;
    } else if (std::strncmp(argv[i], "--prepare=", 10) == 0) {
      prepare = argv[i] + 10;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const fs::path dir = argv[1];
  fs::create_directories(dir);

  auto model = gen::paper_model(cert_scale, conn_scale);
  model.seed = seed;
  if (!prepare.empty()) {
    const auto* entry =
        experiments::ExperimentRegistry::instance().find(prepare);
    if (entry == nullptr) {
      std::fprintf(stderr, "unknown experiment: %s\n", prepare.c_str());
      return 2;
    }
    entry->make()->prepare_model(model);
  }
  gen::TraceGenerator generator(std::move(model));
  auto dataset = generator.generate_dataset();
  if (sorted) {
    std::stable_sort(dataset.ssl().begin(), dataset.ssl().end(),
                     [](const zeek::SslRecord& a, const zeek::SslRecord& b) {
                       return a.ts < b.ts;
                     });
  }

  std::ostringstream ssl_out;
  zeek::write_ssl_log(ssl_out, dataset.ssl());
  const std::string ssl_text = std::move(ssl_out).str();
  std::ostringstream x509_out;
  zeek::write_x509_log(x509_out, dataset);
  const std::string x509_text = std::move(x509_out).str();
  if (!shape_only) {
    write_text(dir / "ssl.log", ssl_text);
    write_text(dir / "x509.log", x509_text);
  }
  write_text(dir / "hdr_ssl.log", header_of(ssl_text));
  write_text(dir / "hdr_x509.log", header_of(x509_text));

  // Input shape: how much of the work repeats, so a memo or cache change
  // can state the share of each workload it is able to help.
  std::unordered_set<std::string_view> der;
  for (const auto& [fuid, row] : dataset.x509()) der.insert(row.cert_der.view());
  std::unordered_set<std::string_view> sni;
  std::unordered_set<std::string_view> hosts;
  std::unordered_set<std::string_view> leaves;
  std::unordered_set<std::int64_t> days;
  std::uint64_t cert_repeats = 0;
  std::uint64_t host_repeats = 0;
  for (const auto& row : dataset.ssl()) {
    if (!row.server_name.empty()) sni.insert(row.server_name.view());
    if (!hosts.insert(row.resp_h.view()).second) ++host_repeats;
    if (!row.cert_chain_fuids.empty() &&
        !leaves.insert(row.cert_chain_fuids[0].view()).second) {
      ++cert_repeats;
    }
    days.insert(row.ts >= 0 ? row.ts / 86'400 : (row.ts - 86'399) / 86'400);
  }
  const double rows = static_cast<double>(std::max<std::size_t>(
      dataset.ssl().size(), 1));
  char shape[1024];
  std::snprintf(
      shape, sizeof(shape),
      "{\"ssl_rows\": %zu, \"x509_rows\": %zu, \"ssl_bytes\": %zu, "
      "\"x509_bytes\": %zu, \"distinct_der\": %zu, \"distinct_sni\": %zu, "
      "\"distinct_hosts\": %zu, \"windows_day\": %zu, "
      "\"cert_repeat_share\": %.6f, \"host_repeat_share\": %.6f, "
      "\"sorted\": %s, \"seed\": %llu, \"cert_scale\": %g, "
      "\"conn_scale\": %g}\n",
      dataset.ssl().size(), dataset.x509().size(), ssl_text.size(),
      x509_text.size(), der.size(), sni.size(), hosts.size(), days.size(),
      static_cast<double>(cert_repeats) / rows,
      static_cast<double>(host_repeats) / rows, sorted ? "true" : "false",
      static_cast<unsigned long long>(seed), cert_scale, conn_scale);
  write_text(dir / "shape.json", shape);
  std::fputs(shape, stdout);
  return 0;
}
