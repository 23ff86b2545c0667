// perfbench_trace: the traced per-layer profile of one benchmark workload.
//
//   perfbench_trace --workload=batch-tsv|batch-mtlc|watch-tail|repro-synth
//       --input-dir=DIR --work-dir=DIR --threads=N --experiments=a,b,...
//       [--container=FILE]
//       [--cert-scale=X --conn-scale=Y --seed=N] [--feed-rate=ROWS_PER_S]
//       [--spans=0|1] [--trace-out=FILE]
//
// One process runs one profile pass, all of it from this file through the
// modules' public functions:
//
//   1. a mirror of experiments::run_experiments over the workload's
//      inputs at --threads (the call `mtlscope run` makes), with spans
//      around registry, model, Harness, run, report and render;
//   2. layer probes over the same inputs: gen, ingest + zeek (TSV) or
//      colfmt (container), x509, textclass, core.enrich, core.pipeline
//      with every analyzer observed through a timing wrapper, and
//      core.executor at 1 and N threads;
//   3. on watch-tail, an in-process tail -> scheduler -> publish ->
//      checkpoint loop fed on the workload's schedule.
//
// Spans (name, start, end, parent, run id) stay in memory and are written
// once at exit as Chrome/Perfetto trace JSON. Per-call work too fine for
// a span (one observe, one make_facts) is timed by accumulating timers
// whose time is charged to the calling span, so every nanosecond of the
// pass lands in exactly one layer's self time. --spans=0 makes the same
// calls with no clock reads at all; run.py compares the two passes to
// report the tracing overhead. The last stdout line is one JSON object
// of metrics.
#include <sys/resource.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/colfmt/scan.hpp"
#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/issuer_category.hpp"
#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/experiments/harness.hpp"
#include "mtlscope/experiments/registry.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/chunker.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/ingest/retry.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/textclass/classifier.hpp"
#include "mtlscope/watch/checkpoint.hpp"
#include "mtlscope/watch/daemon.hpp"
#include "mtlscope/watch/record_tail.hpp"
#include "mtlscope/watch/scheduler.hpp"
#include "mtlscope/x509/parser.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

using namespace mtlscope;
namespace fs = std::filesystem;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) *
             1e-6;
}

// ---------------------------------------------------------------------------
// Span recorder. A span's layer is the part of its name before '/'.

class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  bool enabled() const { return enabled_; }

  int begin(std::string name) {
    if (!enabled_) return -1;
    clock_reads_ += 2;
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }

  /// Accumulating timers nest: a timer started inside another one is
  /// charged to its own layer and taken out of the outer timer's.
  void push_timer() {
    timers_.push_back(0);
    clock_reads_ += 2;
  }

  /// Clock reads the spans and timers made so far.
  std::uint64_t clock_reads() const { return clock_reads_; }

  /// Ends the innermost timer, which ran for `ns`: charges its own part
  /// to `layer` and takes the whole of it out of the enclosing timer or,
  /// at the outermost level, out of the innermost open span's self time.
  void pop_timer(const char* layer, std::int64_t ns) {
    const std::int64_t nested = timers_.back();
    timers_.pop_back();
    if (!timers_.empty()) timers_.back() += ns;
    if (stack_.empty()) return;
    Span& open = spans_[static_cast<std::size_t>(stack_.back())];
    if (timers_.empty()) open.accounted_ns += ns;
    open.accounted[layer] += ns - nested;
  }

  /// Summed duration of every span whose name starts with `prefix`.
  double total_s(std::string_view prefix) const {
    std::int64_t ns = 0;
    for (const auto& span : spans_) {
      if (std::string_view(span.name).substr(0, prefix.size()) == prefix) {
        ns += span.end - span.start;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

  double duration_s(int id) const {
    if (id < 0) return 0;
    const Span& span = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(span.end - span.start) * 1e-9;
  }

  /// Self time per layer: a span's duration minus its child spans and
  /// accumulated timers, plus the accumulated timers' own layers.
  std::map<std::string, double> self_by_layer() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end - span.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::int64_t own =
          span.end - span.start - child_ns[i] - span.accounted_ns;
      self[layer_of(span.name)] += static_cast<double>(own) * 1e-9;
      for (const auto& [layer, ns] : span.accounted) {
        self[layer] += static_cast<double>(ns) * 1e-9;
      }
    }
    return self;
  }

  /// Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) opens.
  bool write_perfetto(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,",
                    static_cast<double>(span.start - origin) * 1e-3,
                    static_cast<double>(span.end - span.start) * 1e-3);
      out << buf << "\"name\":\"" << span.name << "\",\"cat\":\""
          << layer_of(span.name) << "\",\"args\":{\"span\":" << i
          << ",\"parent\":" << span.parent << ",\"run_id\":" << run_id_;
      for (const auto& [layer, ns] : span.accounted) {
        std::snprintf(buf, sizeof(buf), ",\"accounted.%s_ms\":%.6f", layer,
                      static_cast<double>(ns) * 1e-6);
        out << buf;
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::int64_t accounted_ns = 0;
    std::map<const char*, std::int64_t> accounted;
  };

  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('/'));
  }

  bool enabled_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::int64_t> timers_;  // nested time of each open timer
  std::uint64_t clock_reads_ = 0;
};

/// Mean cost of one steady_clock read on this machine.
double clock_read_cost_s() {
  constexpr int kReads = 1'000'000;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kReads; ++i) now_ns();
  return static_cast<double>(now_ns() - start) * 1e-9 / kReads;
}

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// RAII accumulating timer for per-call work: adds the call's duration
/// (nested timers included) to `busy` and charges it to `layer` inside
/// the enclosing span.
class Timed {
 public:
  Timed(Tracer& tracer, const char* layer, double& busy)
      : tracer_(tracer),
        layer_(layer),
        busy_(busy),
        start_(tracer.enabled() ? now_ns() : 0) {
    if (tracer_.enabled()) tracer_.push_timer();
  }
  ~Timed() {
    if (!tracer_.enabled()) return;
    const std::int64_t ns = now_ns() - start_;
    busy_ += static_cast<double>(ns) * 1e-9;
    tracer_.pop_timer(layer_, ns);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer& tracer_;
  const char* layer_;
  double& busy_;
  std::int64_t start_;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string input_dir;
  std::string work_dir;
  std::string container;  // batch-mtlc: the converted input pair
  std::size_t threads = 1;
  std::vector<std::string> experiments;
  double cert_scale = 0;
  double conn_scale = 0;
  std::uint64_t seed = 1;
  double feed_rate = 25'000;
  bool spans = true;
  std::string trace_out;
};

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  std::exit(1);
}

struct Records {
  std::vector<zeek::SslRecord> ssl;
  std::vector<zeek::X509Record> x509;
};

using Metrics = std::map<std::string, double>;

experiments::RunOptions base_options(const Args& args) {
  experiments::RunOptions options;
  options.threads = args.threads;
  options.seed = args.seed;
  options.stable_output = true;
  if (args.workload == "repro-synth") {
    options.cert_scale_override = args.cert_scale;
    options.conn_scale_override = args.conn_scale;
  } else if (args.workload == "batch-mtlc") {
    options.ssl_log = args.container;
  } else {
    options.ssl_log = args.input_dir + "/ssl.log";
    options.x509_log = args.input_dir + "/x509.log";
  }
  return options;
}

// ---------------------------------------------------------------------------
// 1. Mirror of experiments::run_experiments (registry.cpp), spanned.

struct MirrorResult {
  double run_s = 0;  // the whole mirrored call
  double harness_run_s = 0;
  std::uint64_t records = 0;
};

MirrorResult mirror_run_experiments(Tracer& tracer,
                                    const std::vector<std::string>& names,
                                    const experiments::RunOptions& base,
                                    Metrics& metrics, bool report) {
  MirrorResult result;
  Scope whole(tracer, "experiments/run_experiments");
  const auto started = now_ns();
  struct Item {
    const experiments::ExperimentRegistry::Entry* entry = nullptr;
    std::unique_ptr<experiments::Experiment> exp;
    experiments::RunOptions options;
    std::string group;
  };
  std::vector<Item> items;
  {
    Scope scope(tracer, "experiments/registry");
    const auto& registry = experiments::ExperimentRegistry::instance();
    for (const auto& name : names) {
      Item item;
      item.entry = registry.find(name);
      if (item.entry == nullptr) die("unknown experiment " + name);
      item.exp = item.entry->make();
      item.options = base.resolved(item.entry->info.cert_scale,
                                   item.entry->info.conn_scale);
      char key[128];
      std::snprintf(key, sizeof(key), "|%.17g|%.17g",
                    item.options.cert_scale, item.options.conn_scale);
      item.group = item.options.file_mode() ? std::string("file")
                                            : item.exp->model_key() + key;
      items.push_back(std::move(item));
    }
  }
  double report_busy = 0;
  double report_bytes = 0;
  std::vector<bool> done(items.size(), false);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (done[i]) continue;
    std::vector<std::size_t> group;
    for (std::size_t j = i; j < items.size(); ++j) {
      if (!done[j] && items[j].group == items[i].group) {
        group.push_back(j);
        done[j] = true;
      }
    }
    Item& lead = items[i];
    std::optional<gen::CampusModel> model;
    {
      Scope scope(tracer, "gen/paper_model");
      model.emplace(
          gen::paper_model(lead.options.cert_scale, lead.options.conn_scale));
      model->seed = lead.options.seed;
      for (const std::size_t j : group) items[j].exp->prepare_model(*model);
    }
    std::optional<experiments::Harness> harness;
    {
      Scope scope(tracer, "experiments/harness");
      harness.emplace(std::move(*model), lead.options);
      for (const std::size_t j : group) items[j].exp->attach(*harness);
    }
    {
      // Synthetic mode generates the trace inside Harness::run; the gen
      // probe reports generation's own share.
      const auto t0 = now_ns();
      Scope scope(tracer, "core.executor/harness_run");
      harness->run();
      result.harness_run_s += static_cast<double>(now_ns() - t0) * 1e-9;
    }
    result.records += harness->records_processed();
    if (!report) continue;
    for (const std::size_t j : group) {
      Item& item = items[j];
      core::ResultDoc doc;
      doc.experiment = item.entry->info.name;
      doc.anchor = item.entry->info.anchor;
      doc.title = item.entry->info.title;
      doc.run.present = true;
      doc.run.file_mode = item.options.file_mode();
      doc.run.threads = harness->shard_count();
      doc.run.records = harness->records_processed();
      {
        const auto t0 = now_ns();
        Scope scope(tracer, "core.report/report");
        item.exp->report(*harness, doc);
        report_busy += static_cast<double>(now_ns() - t0) * 1e-9;
      }
      const auto t0 = now_ns();
      Scope scope(tracer, "core.report/render_json");
      report_bytes += static_cast<double>(core::render_json(doc, 2).size());
      report_busy += static_cast<double>(now_ns() - t0) * 1e-9;
    }
  }
  result.run_s = static_cast<double>(now_ns() - started) * 1e-9;
  if (report) {
    metrics["core.report.busy_s"] = report_busy;
    metrics["core.report.bytes"] = report_bytes;
  }
  return result;
}

// ---------------------------------------------------------------------------
// 2. Layer probes.

std::size_t count_lines(std::string_view text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

/// ingest (open_source + RecordChunker::next) and zeek (tolerant parse)
/// over one TSV pair, keeping the parsed records for the later probes.
void probe_ingest_zeek(Tracer& tracer, const std::string& ssl_path,
                       const std::string& x509_path, Records& out,
                       Metrics& metrics) {
  const auto& retries = ingest::retry_counters();
  const auto retry_sum = [&retries] {
    return retries.eintr_retries.load() + retries.short_reads.load() +
           retries.backoff_sleeps.load();
  };
  const std::uint64_t retries_before = retry_sum();
  double ingest_bytes = 0;
  double zeek_rows = 0;
  double zeek_bad = 0;
  for (const bool ssl : {false, true}) {
    const std::string& path = ssl ? ssl_path : x509_path;
    std::unique_ptr<ingest::Source> source;
    ingest::LogLayout layout;
    {
      Scope scope(tracer, "ingest/open_source");
      ingest::IngestError error;
      source = ingest::open_source(path, &error);
      if (!source) die("cannot open " + path + ": " + error.to_string());
      layout = ingest::detect_log_layout(*source);
    }
    ingest_bytes += static_cast<double>(layout.header.size());
    zeek::SslPlan ssl_plan;
    zeek::X509Plan x509_plan;
    {
      Scope scope(tracer, "zeek/compile_plan");
      const auto columns = zeek::ColumnPlan::from_header(layout.header);
      if (ssl) {
        ssl_plan = zeek::SslPlan::compile(columns);
      } else {
        x509_plan = zeek::X509Plan::compile(columns);
      }
    }
    const std::size_t header_lines = count_lines(layout.header);
    ingest::RecordChunker chunker(*source, std::size_t{1} << 20,
                                  layout.body_begin, source->size());
    // Each chunk parses into reused vectors, as the executor's workers
    // do; keeping the rows for the later probes is the benchmark's work.
    std::vector<zeek::SslRecord> ssl_rows;
    std::vector<zeek::X509Record> x509_rows;
    std::vector<zeek::RowIssue> issues;
    while (true) {
      ingest::Chunk chunk;
      {
        Scope scope(tracer, "ingest/next");
        if (!chunker.next(chunk)) break;
      }
      ingest_bytes += static_cast<double>(chunk.view().size());
      ssl_rows.clear();
      x509_rows.clear();
      {
        Scope scope(tracer, ssl ? "zeek/parse_ssl_records_tolerant"
                                : "zeek/parse_x509_records_tolerant");
        const auto stats =
            ssl ? zeek::parse_ssl_records_tolerant(chunk.view(), ssl_plan,
                                                   ssl_rows, &issues,
                                                   header_lines, chunk.offset)
                : zeek::parse_x509_records_tolerant(
                      chunk.view(), x509_plan, x509_rows, &issues,
                      header_lines, chunk.offset);
        zeek_rows += static_cast<double>(stats.rows_ok);
        zeek_bad += static_cast<double>(stats.rows_bad);
      }
      Scope scope(tracer, "bench/keep_rows");
      for (auto& row : ssl_rows) out.ssl.push_back(std::move(row));
      for (auto& row : x509_rows) out.x509.push_back(std::move(row));
    }
  }
  metrics["ingest.bytes"] = ingest_bytes;
  metrics["ingest.busy_s"] = tracer.total_s("ingest/");
  metrics["ingest.read_retries"] =
      static_cast<double>(retry_sum() - retries_before);
  metrics["zeek.rows"] = zeek_rows;
  metrics["zeek.busy_s"] = tracer.total_s("zeek/");
  metrics["zeek.quarantined"] = zeek_bad;
}

/// colfmt: open, x509 block decode and the pipeline-column ssl scan.
void probe_colfmt(Tracer& tracer, const std::string& container, Records& out,
                  Metrics& metrics) {
  std::optional<colfmt::ContainerReader> reader;
  {
    Scope scope(tracer, "colfmt/open");
    std::string error;
    reader = colfmt::ContainerReader::open(container, &error);
    if (!reader) die("cannot open " + container + ": " + error);
  }
  metrics["colfmt.open_s"] = tracer.total_s("colfmt/open");
  double scan_busy = 0;
  double rows = 0;
  for (const auto& block : reader->x509_blocks()) {
    Scope scope(tracer, "colfmt/decode_x509_block");
    auto decoded = reader->decode_x509_block(block);
    rows += static_cast<double>(decoded.size());
    for (auto& row : decoded) out.x509.push_back(std::move(row));
  }
  scan_busy += tracer.total_s("colfmt/decode_x509_block");
  for (const auto& block : reader->ssl_blocks()) {
    // The copy into `out` is the benchmark's own work; only the scan is
    // charged to colfmt.
    Scope scope(tracer, "bench/collect_ssl_block");
    std::optional<colfmt::SslBlockScan> scan;
    {
      Timed timed(tracer, "colfmt", scan_busy);
      scan.emplace(reader->scan_ssl_block(
          block, colfmt::SslScanColumns::pipeline()));
    }
    zeek::SslRecord record;
    while (!scan->done()) {
      {
        Timed timed(tracer, "colfmt", scan_busy);
        scan->next(record);
      }
      out.ssl.push_back(record);
    }
    rows += static_cast<double>(scan->rows());
  }
  metrics["colfmt.blocks"] = static_cast<double>(reader->ssl_blocks().size() +
                                                 reader->x509_blocks().size());
  metrics["colfmt.rows"] = rows;
  metrics["colfmt.scan_busy_s"] = scan_busy;
}

void probe_convert(Tracer& tracer, const Args& args, Metrics& metrics) {
  colfmt::CompactRequest request;
  request.ssl_path = args.input_dir + "/ssl.log";
  request.x509_path = args.input_dir + "/x509.log";
  request.out_path = args.work_dir + "/trace_convert.mtlc";
  colfmt::CompactStats stats;
  std::string error;
  {
    Scope scope(tracer, "colfmt/compact_logs");
    if (!colfmt::compact_logs(request, &stats, &error)) {
      die("compact_logs failed: " + error);
    }
  }
  metrics["colfmt.convert_s"] = tracer.total_s("colfmt/compact_logs");
  fs::remove(request.out_path);
}

/// x509 (parse_certificate per distinct DER) and textclass
/// (classify_value on CN and SAN DNS names, issuer categorize).
void probe_x509_textclass(Tracer& tracer, const Records& records,
                          const core::PipelineConfig& config,
                          Metrics& metrics) {
  Scope scope(tracer, "bench/certificate_loop");
  const core::IssuerCategorizer categorizer(config.dummy_issuer_orgs);
  std::unordered_set<std::string_view> seen;
  double x509_busy = 0;
  double text_busy = 0;
  double certs = 0;
  double errors = 0;
  double calls = 0;
  for (const auto& row : records.x509) {
    const std::string_view der = row.cert_der.view();
    if (der.empty() || !seen.insert(der).second) continue;
    std::optional<x509::ParseResult> parsed;
    {
      Timed timed(tracer, "x509", x509_busy);
      parsed.emplace(x509::parse_certificate(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(der.data()), der.size())));
    }
    ++certs;
    const x509::Certificate* cert = x509::get_certificate(*parsed);
    if (cert == nullptr) {
      ++errors;
      continue;
    }
    const std::string issuer(cert->issuer.organization().value_or(
        cert->issuer.common_name().value_or("")));
    const bool campus =
        std::find(config.campus_issuer_orgs.begin(),
                  config.campus_issuer_orgs.end(),
                  issuer) != config.campus_issuer_orgs.end();
    const std::string cn(cert->subject.common_name().value_or(""));
    const std::vector<std::string> sans = cert->san_dns();
    textclass::ClassifyContext ctx;
    ctx.issuer = issuer;
    ctx.campus_issuer = campus;
    Timed timed(tracer, "textclass", text_busy);
    if (!cn.empty()) {
      textclass::classify_value(cn, ctx);
      ++calls;
    }
    for (const auto& san : sans) {
      textclass::classify_value(san, ctx);
      ++calls;
    }
    categorizer.categorize(cert->issuer, false);
    ++calls;
  }
  metrics["x509.certs"] = certs;
  metrics["x509.busy_s"] = x509_busy;
  metrics["x509.parse_errors"] = errors;
  metrics["textclass.calls"] = calls;
  metrics["textclass.busy_s"] = text_busy;
}

/// core.enrich: make_facts per certificate row, then per-connection
/// direction, host and address facts through one EnrichCache.
void probe_enrich(Tracer& tracer, const Records& records,
                  const core::PipelineConfig& config, Metrics& metrics) {
  std::optional<core::Enricher> enricher;
  {
    Scope scope(tracer, "core.enrich/construct");
    enricher.emplace(config);
  }
  double facts_busy = 0;
  double conn_busy = 0;
  {
    Scope scope(tracer, "bench/facts_loop");
    for (const auto& row : records.x509) {
      Timed timed(tracer, "core.enrich", facts_busy);
      const core::CertFacts facts = enricher->make_facts(row);
      (void)facts;
    }
  }
  core::EnrichCache cache;
  {
    Scope scope(tracer, "bench/connection_loop");
    for (const auto& row : records.ssl) {
      Timed timed(tracer, "core.enrich", conn_busy);
      enricher->infer_direction(row);
      if (!row.server_name.empty()) enricher->host_facts(row.server_name, cache);
      enricher->addr_facts(row.orig_h, cache);
      enricher->addr_facts(row.resp_h, cache);
    }
  }
  metrics["core.enrich.facts_busy_s"] = facts_busy;
  metrics["core.enrich.conn_busy_s"] = conn_busy;
}

constexpr const char* kAnalyzerNames[8] = {
    "Prevalence",   "ServicePort",     "InboundAssociation", "OutboundFlow",
    "DummyIssuer",  "SerialCollision", "SharedCert",         "IncorrectDate"};

/// core.pipeline + core.analyzers: one serial Pipeline with the eight
/// analyzers observed through timing wrappers.
void probe_pipeline(Tracer& tracer, const Records& records,
                    const core::PipelineConfig& config, Metrics& metrics) {
  core::Pipeline pipeline(config);
  core::AnalyzerSet set;
  double busy[8] = {};
  const auto wrap = [&](int index, auto& analyzer) {
    pipeline.add_observer([&tracer, &busy, index,
                           &analyzer](const core::EnrichedConnection& c) {
      Timed timed(tracer, "core.analyzers", busy[index]);
      analyzer.observe(c);
    });
  };
  wrap(0, set.prevalence);
  wrap(1, set.service_ports);
  wrap(2, set.inbound_assoc);
  wrap(3, set.outbound_flows);
  wrap(4, set.dummy_issuers);
  wrap(5, set.serial_collisions);
  wrap(6, set.shared_certs);
  wrap(7, set.incorrect_dates);
  {
    Scope scope(tracer, "core.pipeline/add_certificate");
    for (const auto& row : records.x509) pipeline.add_certificate(row);
  }
  {
    Scope scope(tracer, "core.pipeline/add_connection");
    for (const auto& row : records.ssl) pipeline.add_connection(row);
  }
  {
    Scope scope(tracer, "core.pipeline/finalize");
    pipeline.finalize();
  }
  double observed = 0;
  for (int i = 0; i < 8; ++i) {
    metrics[std::string("core.analyzers.") + kAnalyzerNames[i] + ".busy_s"] =
        busy[i];
    observed += busy[i];
  }
  metrics["core.pipeline.self_s"] = tracer.total_s("core.pipeline/") - observed;
}

/// core.executor at `threads`, with all eight analyzers attached.
struct ExecutorRun {
  double wall_s = 0;
  double cpu_s = 0;
  core::PipelineExecutor::RunStats stats;
};

ExecutorRun probe_executor(Tracer& tracer, const Args& args,
                           const core::PipelineConfig& config,
                           std::size_t threads, const zeek::Dataset* dataset) {
  core::PipelineExecutor executor(config, threads);
  const std::size_t k = executor.shard_count();
  core::Sharded<core::PrevalenceAnalyzer> a0(k);
  core::Sharded<core::ServicePortAnalyzer> a1(k);
  core::Sharded<core::InboundAssociationAnalyzer> a2(k);
  core::Sharded<core::OutboundFlowAnalyzer> a3(k);
  core::Sharded<core::DummyIssuerAnalyzer> a4(k);
  core::Sharded<core::SerialCollisionAnalyzer> a5(k);
  core::Sharded<core::SharedCertAnalyzer> a6(k);
  core::Sharded<core::IncorrectDateAnalyzer> a7(k);
  executor.attach(a0);
  executor.attach(a1);
  executor.attach(a2);
  executor.attach(a3);
  executor.attach(a4);
  executor.attach(a5);
  executor.attach(a6);
  executor.attach(a7);
  ExecutorRun run;
  const double cpu0 = process_cpu_s();
  const auto t0 = now_ns();
  {
    Scope scope(tracer, threads == 1 ? "core.executor/run_t1"
                                     : "core.executor/run_tN");
    ingest::IngestError error;
    if (dataset != nullptr) {
      executor.run(*dataset);
    } else if (args.workload == "batch-mtlc") {
      std::string open_error;
      const auto reader =
          colfmt::ContainerReader::open(args.container, &open_error);
      if (!reader) die("cannot open container: " + open_error);
      if (!executor.run_container(*reader, &error)) {
        die("run_container failed: " + error.to_string());
      }
    } else if (!executor.run_log_files(args.input_dir + "/ssl.log",
                                       args.input_dir + "/x509.log",
                                       &error)) {
      die("run_log_files failed: " + error.to_string());
    }
  }
  run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.cpu_s = process_cpu_s() - cpu0;
  run.stats = executor.last_run_stats();
  return run;
}

// ---------------------------------------------------------------------------
// 3. watch: tail -> scheduler -> publish -> checkpoint, fed on schedule.

void probe_watch(Tracer& tracer, const Args& args, Metrics& metrics) {
  Scope whole(tracer, "bench/watch_feed");
  // The time-sorted ssl log is the feed; rows are appended at the
  // workload's rate and polled right after each append.
  std::string text;
  {
    std::ifstream in(args.input_dir + "/ssl.log", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = std::move(buf).str();
  }
  std::size_t body = 0;
  while (body < text.size() && text[body] == '#') {
    body = text.find('\n', body) + 1;
  }
  std::vector<std::size_t> row_end;  // end offset of each row
  for (std::size_t pos = body; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    row_end.push_back(pos);
  }
  const fs::path dir = fs::path(args.work_dir) / "trace_watch";
  fs::remove_all(dir);
  fs::create_directories(dir / "out");
  const std::string feed = (dir / "ssl.log").string();
  const int fd = ::open(feed.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                        0644);
  if (fd < 0) die("cannot create " + feed);
  const auto append = [fd](std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd, bytes.data(), bytes.size());
      if (n <= 0) die("feed write failed");
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  };
  append(std::string_view(text).substr(0, body));

  watch::WatchConfig config;
  config.window_seconds = 86'400;
  config.rollup_windows = 24;
  config.experiments = args.experiments;
  config.run.threads = args.threads;
  config.run.seed = args.seed;
  config.run.stable_output = true;
  config.run.ssl_log = feed;
  config.run.x509_log = args.input_dir + "/x509.log";

  auto& writes = ingest::write_retry_counters();
  const auto fsyncs = [&writes] {
    return writes.fsyncs.load() + writes.dir_fsyncs.load();
  };
  const auto write_retries = [&writes] {
    return writes.eintr_retries.load() + writes.short_writes.load() +
           writes.backoff_sleeps.load();
  };
  const std::uint64_t fsyncs0 = fsyncs();
  const std::uint64_t retries0 = write_retries();

  double tail_busy = 0;
  double add_busy = 0;
  double publish_busy = 0;
  double ckpt_busy = 0;
  double ckpt_bytes = 0;
  double emissions = 0;
  double tail_rows = 0;
  double held_max = 0;
  double late_max_ms = 0;
  watch::DurablePublisher publisher((dir / "out").string());
  watch::WindowScheduler scheduler(
      config, [&](const watch::Emission& emission) {
        Timed timed(tracer, "watch", publish_busy);
        char name[64];
        if (emission.kind == watch::Emission::Kind::kCumulative) {
          std::snprintf(name, sizeof(name), "cumulative.json");
        } else {
          std::snprintf(name, sizeof(name), "%s-%012lld.json",
                        emission.kind == watch::Emission::Kind::kWindow
                            ? "window"
                            : "rollup",
                        static_cast<long long>(emission.start_ts));
        }
        publisher.publish(name, emission.envelope);
        ++emissions;
      });
  watch::RecordTail<watch::detail::X509Traits> x509_tail(config.run.x509_log);
  watch::RecordTail<watch::detail::SslTraits> ssl_tail(feed);
  const std::string ckpt_path = (dir / "watch.ckpt").string();

  const auto feed_rows = [&](bool drain) {
    std::optional<watch::TailRows<zeek::X509Record>> x509_rows;
    std::optional<watch::TailRows<zeek::SslRecord>> ssl_rows;
    {
      Timed timed(tracer, "watch", tail_busy);
      x509_rows.emplace(drain ? x509_tail.drain() : x509_tail.poll());
      ssl_rows.emplace(drain ? ssl_tail.drain() : ssl_tail.poll());
    }
    tail_rows += static_cast<double>(ssl_rows->records.size() +
                                     x509_rows->records.size());
    // Emissions publish from inside add_ssl; their time is charged to
    // watch.publish, the rest of the call to the scheduler.
    const double publish_before = publish_busy;
    double add = 0;
    {
      Timed timed(tracer, "watch", add);
      scheduler.add_x509(std::move(x509_rows->records));
      scheduler.add_ssl(std::move(ssl_rows->records));
    }
    add_busy += add - (publish_busy - publish_before);
    held_max = std::max(held_max, static_cast<double>(scheduler.held()));
  };

  // Rows are appended every 2 ms tick, each tick writing every row due
  // by then; row i is due at i / rate seconds after the start.
  const double rate = args.feed_rate;
  constexpr std::int64_t kTickNs = 2'000'000;
  const std::int64_t start = now_ns();
  std::int64_t next_tick = start;
  std::int64_t last_ckpt = start;
  std::size_t next_row = 0;
  while (next_row < row_end.size()) {
    const std::int64_t wait = next_tick - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    next_tick += kTickNs;
    const std::int64_t now = now_ns();
    const double elapsed = static_cast<double>(now - start) * 1e-9;
    const std::size_t due = std::min(
        row_end.size(), static_cast<std::size_t>(elapsed * rate) + 1);
    if (due > next_row) {
      const double due_at = static_cast<double>(next_row) / rate;
      late_max_ms = std::max(late_max_ms, (elapsed - due_at) * 1e3);
      const std::size_t from = next_row == 0 ? body : row_end[next_row - 1];
      append(std::string_view(text).substr(from, row_end[due - 1] - from));
      next_row = due;
      feed_rows(false);
    }
    if (now - last_ckpt >= 2'000'000'000) {  // --checkpoint-every=2
      last_ckpt = now;
      Timed timed(tracer, "watch", ckpt_busy);
      watch::WatchCheckpoint ckpt;
      scheduler.save(ckpt);
      ckpt.ssl_tail = ssl_tail.source().position();
      ckpt.x509_tail = x509_tail.source().position();
      const auto saved = watch::save_watch_checkpoint(ckpt_path, ckpt);
      if (!saved.ok) die("checkpoint save failed: " + saved.message);
      ckpt_bytes = static_cast<double>(fs::file_size(ckpt_path));
    }
  }
  ::close(fd);
  feed_rows(true);
  {
    const double publish_before = publish_busy;
    double drain = 0;
    {
      Timed timed(tracer, "watch", drain);
      scheduler.drain();
    }
    add_busy += drain - (publish_busy - publish_before);
  }
  metrics["watch.tail.busy_s"] = tail_busy;
  metrics["watch.tail.rows"] = tail_rows;
  metrics["watch.scheduler.add_busy_s"] = add_busy;
  metrics["watch.scheduler.emissions"] = emissions;
  metrics["watch.scheduler.held_max"] = held_max;
  metrics["watch.scheduler.late"] =
      static_cast<double>(scheduler.status().late);
  metrics["watch.publish.busy_s"] = publish_busy;
  metrics["watch.publish.fsyncs"] = static_cast<double>(fsyncs() - fsyncs0);
  metrics["watch.publish.write_retries"] =
      static_cast<double>(write_retries() - retries0);
  metrics["watch.checkpoint.save_s"] = ckpt_busy;
  metrics["watch.checkpoint.bytes"] = ckpt_bytes;
  metrics["watch.feed_late_max_ms"] = late_max_ms;
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> std::optional<std::string> {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0) return arg.substr(n);
      return std::nullopt;
    };
    if (auto v = value("--workload=")) {
      args.workload = *v;
    } else if (auto v = value("--input-dir=")) {
      args.input_dir = *v;
    } else if (auto v = value("--work-dir=")) {
      args.work_dir = *v;
    } else if (auto v = value("--container=")) {
      args.container = *v;
    } else if (auto v = value("--threads=")) {
      args.threads = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--experiments=")) {
      args.experiments = split_list(*v);
    } else if (auto v = value("--cert-scale=")) {
      args.cert_scale = std::atof(v->c_str());
    } else if (auto v = value("--conn-scale=")) {
      args.conn_scale = std::atof(v->c_str());
    } else if (auto v = value("--seed=")) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--feed-rate=")) {
      args.feed_rate = std::atof(v->c_str());
    } else if (auto v = value("--spans=")) {
      args.spans = *v != "0";
    } else if (auto v = value("--trace-out=")) {
      args.trace_out = *v;
    } else {
      die("unknown flag " + arg);
    }
  }
  if (args.workload != "batch-tsv" && args.workload != "batch-mtlc" &&
      args.workload != "watch-tail" && args.workload != "repro-synth") {
    die("unknown --workload=" + args.workload);
  }
  if (args.experiments.empty()) die("--experiments= is empty");
  if (args.work_dir.empty()) die("--work-dir= is required");
  if (args.workload == "batch-mtlc" && args.container.empty()) {
    die("batch-mtlc needs --container=");
  }
  if (args.threads == 0) args.threads = 1;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  fs::create_directories(args.work_dir);
  Tracer tracer(args.spans, args.seed);
  Metrics metrics;
  const bool synthetic = args.workload == "repro-synth";
  double records = 0;
  const auto started = now_ns();
  int root_id = -1;
  {
    Scope root(tracer, "bench/profile_pass");
    root_id = root.id();

    const MirrorResult mirror = mirror_run_experiments(
        tracer, args.experiments, base_options(args), metrics, true);
    records = static_cast<double>(mirror.records);
    metrics["trace.mirror_run_s"] = mirror.run_s;
    metrics["experiments.registry_s"] = tracer.total_s("experiments/registry");
    metrics["experiments.harness_s"] = tracer.total_s("experiments/harness");

    // The shared observer (the ad-hoc dataset_stats observer behind the
    // executor's mutex) cannot be wrapped from outside: its cost is the
    // difference between two more runs, with and without it, both after
    // the mirror has warmed the process-wide arenas.
    const auto with_shared = std::find(args.experiments.begin(),
                                       args.experiments.end(),
                                       "dataset_stats");
    if (with_shared != args.experiments.end()) {
      std::vector<std::string> without = args.experiments;
      without.erase(without.begin() + (with_shared - args.experiments.begin()));
      Scope scope(tracer, "bench/shared_observer_difference");
      const MirrorResult with_run = mirror_run_experiments(
          tracer, args.experiments, base_options(args), metrics, false);
      const MirrorResult without_run = mirror_run_experiments(
          tracer, without, base_options(args), metrics, false);
      metrics["core.analyzers.shared_observer.busy_s"] =
          with_run.harness_run_s - without_run.harness_run_s;
    }

    Records input;
    core::PipelineConfig config = core::PipelineConfig::campus_defaults();
    std::optional<gen::TraceGenerator> generator;
    std::optional<zeek::Dataset> dataset;
    if (synthetic) {
      // The pristine certificate-table group's model, as run_experiments
      // builds it for table1.
      auto model = gen::paper_model(args.cert_scale, args.conn_scale);
      model.seed = args.seed;
      experiments::ExperimentRegistry::instance().find("table1")->make()
          ->prepare_model(model);
      {
        Scope scope(tracer, "gen/construct");
        generator.emplace(std::move(model));
      }
      {
        Scope scope(tracer, "gen/generate_dataset");
        dataset.emplace(generator->generate_dataset());
      }
      metrics["gen.busy_s"] = tracer.total_s("gen/");
      metrics["gen.connections"] =
          static_cast<double>(generator->stats().connections);
      metrics["gen.certificates"] =
          static_cast<double>(generator->stats().certificates_minted);
      config.ct = &generator->ct_database();
      Scope scope(tracer, "bench/copy_dataset");
      input.ssl = dataset->ssl();
      for (const auto& [fuid, row] : dataset->x509()) input.x509.push_back(row);
    } else if (args.workload == "batch-mtlc") {
      probe_convert(tracer, args, metrics);
      probe_colfmt(tracer, args.container, input, metrics);
    } else {
      probe_ingest_zeek(tracer, args.input_dir + "/ssl.log",
                        args.input_dir + "/x509.log", input, metrics);
    }
    probe_x509_textclass(tracer, input, config, metrics);
    probe_enrich(tracer, input, config, metrics);
    probe_pipeline(tracer, input, config, metrics);

    const ExecutorRun t1 = probe_executor(tracer, args, config, 1,
                                          dataset ? &*dataset : nullptr);
    const ExecutorRun tn = probe_executor(tracer, args, config, args.threads,
                                          dataset ? &*dataset : nullptr);
    const double n = static_cast<double>(args.threads);
    const double speedup = tn.wall_s > 0 ? t1.wall_s / tn.wall_s : 0;
    metrics["core.executor.wall_s_t1"] = t1.wall_s;
    metrics["core.executor.wall_s_tN"] = tn.wall_s;
    metrics["core.executor.cpu_s_t1"] = t1.cpu_s;
    metrics["core.executor.cpu_s_tN"] = tn.cpu_s;
    metrics["core.executor.speedup"] = speedup;
    metrics["core.executor.efficiency"] = speedup / n;
    // Amdahl: speedup = 1 / (s + (1 - s) / N)  =>  s = (N/speedup - 1)/(N - 1).
    metrics["core.executor.serial_share"] =
        n > 1 && speedup > 0 ? (n / speedup - 1) / (n - 1) : 1;
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses);
    };
    metrics["core.enrich.facts_hit_ratio"] =
        ratio(tn.stats.facts_hits, tn.stats.facts_misses);
    metrics["core.enrich.host_hit_ratio"] =
        ratio(tn.stats.enrich_hits, tn.stats.enrich_misses);

    if (args.workload == "watch-tail") probe_watch(tracer, args, metrics);
  }
  const double wall = static_cast<double>(now_ns() - started) * 1e-9;
  metrics["trace.pass_wall_s"] = wall;
  metrics["trace.mirror_records_per_s"] =
      metrics["trace.mirror_run_s"] > 0 ? records / metrics["trace.mirror_run_s"]
                                        : 0;
  if (tracer.enabled()) {
    double self_sum = 0;
    for (const auto& [layer, seconds] : tracer.self_by_layer()) {
      metrics["self." + layer + "_s"] = seconds;
      self_sum += seconds;
    }
    metrics["trace.self_sum_s"] = self_sum;
    // Deterministic companion to the noisy traced-minus-untraced wall
    // difference run.py reports: what the clock reads alone cost.
    metrics["trace.clock_reads"] = static_cast<double>(tracer.clock_reads());
    metrics["trace.overhead_est_s"] =
        static_cast<double>(tracer.clock_reads()) * clock_read_cost_s();
    metrics["trace.root_s"] = tracer.duration_s(root_id);
    if (!args.trace_out.empty() && !tracer.write_perfetto(args.trace_out)) {
      die("cannot write " + args.trace_out);
    }
  }

  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}\n");
  return 0;
}
