// Thread invariance of the §3.3 dataset statistics. dataset_stats keeps
// per-shard endpoint sets and counters that merge by set union and sum, so
// its canonical JSON must not depend on the shard count. Small scales keep
// the pass cheap enough to run under ThreadSanitizer (the tsan test preset
// includes this binary).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/experiments/registry.hpp"

namespace core = mtlscope::core;
namespace experiments = mtlscope::experiments;

namespace {

core::ResultDoc run_dataset_stats(std::size_t threads) {
  experiments::RunOptions options;
  options.cert_scale_override = 8000;
  options.conn_scale_override = 2'000'000;
  options.stable_output = true;
  options.threads = threads;
  const auto docs = experiments::run_experiments({"dataset_stats"}, options);
  EXPECT_EQ(docs.size(), 1u);
  return docs.front();
}

TEST(DatasetStats, CanonicalJsonIndependentOfThreadCount) {
  const core::ResultDoc serial = run_dataset_stats(1);
  const core::ResultDoc sharded = run_dataset_stats(3);
  const std::string json = core::render_json(serial, 2);
  EXPECT_EQ(json, core::render_json(sharded, 2));
  EXPECT_EQ(core::render_text(serial), core::render_text(sharded));

  // The run must reach every statistic: a share over an empty set would
  // render as 0 in both runs and compare equal vacuously.
  const std::string text = core::render_text(serial);
  for (const char* row :
       {"TLS 1.3 share of server IPs", "TLS 1.3 share of client IPs",
        "Inbound mutual: device mgmt / access control",
        "Outbound mutual: email protocols",
        "External servers at cloud/security providers"}) {
    const auto at = text.find(row);
    ASSERT_NE(at, std::string::npos) << row;
    const auto eol = text.find('\n', at);
    EXPECT_EQ(text.substr(at, eol - at).find(" 0.00%"), std::string::npos)
        << text.substr(at, eol - at);
  }
}

}  // namespace
