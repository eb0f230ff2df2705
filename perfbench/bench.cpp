// perfbench: one run of one workload of the end-to-end benchmark.
//
//   perfbench <campaign-lenet5|search-deepdup|service-minicnn>
//       --seed N --seconds S --trace 0|1 --out DIR --cli PATH
//       --references FILE [--smoke] [--tamper-reference]
//       [--record-reference] [--setup-only]
//
// perfbench/run.py builds and runs it; --record-reference serves
// perfbench/record_references.py and --setup-only times one victim build
// for the set-up samples.
//
// The program links the deepstrike libraries and calls them through their
// public entry points, the same calls `deepstrike campaign`, `search`,
// `serve` and `work` make. It times those calls from outside, checks every
// job's output against the recorded reference for the seed, and prints one
// JSON line as the last line of stdout:
//
//   {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ledger, and a Chrome trace is written under --out.
// perfbench/NOTES.md explains every metric and workload.
#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/weight_transfer.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "quant/weight_stream.hpp"
#include "sim/campaign.hpp"
#include "sim/dist_client.hpp"
#include "sim/golden_cache.hpp"
#include "sim/platform.hpp"
#include "sim/runner.hpp"
#include "sim/search.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

extern char** environ;

using namespace deepstrike;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Sweep width of the in-process workloads. The global pool is one thread,
/// so the per-image loops inside a sweep point run inline and exactly two
/// threads compute. The CLI's `--threads 2` sets both widths to 2, and as
/// the caller of a parallel loop works beside the pool, up to three threads
/// compute (perfbench/NOTES.md). The service runs two single-thread
/// workers instead.
constexpr std::size_t kSweepThreads = 2;

/// Set-up samples taken before the warm-up job and after every job;
/// setup_s is the median of all of them. Spreading the samples over the
/// run matters more than their number: set-up time on the shared host
/// switches between a fast and a slow level every few seconds
/// (perfbench/NOTES.md). One in-process sample costs about a second of
/// the run's time budget; a service launch takes milliseconds, so it is
/// sampled more often.
constexpr int kSetupsPerSlot = 1;
constexpr int kLaunchesPerSlot = 3;

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double median(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (double v : values) total += v;
    return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs `fn` under a benchmark span and stores its wall time in `seconds`.
template <typename F>
auto timed(const char* span, double& seconds, F&& fn) {
    trace::Span s(span, "bench");
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        seconds = since(start);
    } else {
        auto result = fn();
        seconds = since(start);
        return result;
    }
}

// ------------------------------------------------------------- host probe

volatile std::uint64_t g_probe_sink = 0;

/// A fixed scalar loop owned by the benchmark. Its time moves only with
/// the host (frequency, contention), never with the program, so a noisy
/// comparison can be traced to the machine.
double host_probe() {
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    g_probe_sink = x;
    return since(start);
}

/// Resets a running process's peak-RSS mark (VmHWM) to its current RSS
/// ("self" for this one), so the next peak_rss_mib() covers the jobs only,
/// not set-up.
void reset_peak_rss(const std::string& pid) {
    std::ofstream clear("/proc/" + pid + "/clear_refs");
    clear << "5";
    if (!clear.flush()) throw IoError("cannot reset the peak RSS mark of " + pid);
}

/// Peak RSS (VmHWM) of a running process since its last reset_peak_rss().
double peak_rss_mib(const std::string& pid) {
    const std::string path = "/proc/" + pid + "/status";
    std::ifstream status(path);
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    throw IoError("VmHWM missing from " + path);
}

// ----------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;
    std::string cli;
    std::string references;
    bool smoke = false;
    bool tamper_reference = false;
    /// Only compute this seed's reference (at 1 thread) and write it under
    /// --out; perfbench/record_references.py collects them.
    bool record_reference = false;
    /// Only build the workload's victim once and print the seconds it took
    /// (one set-up sample; see sample_setup()).
    bool setup_only = false;
};

Options parse_options(int argc, char** argv) {
    if (argc < 2) throw ConfigError("usage: perfbench <workload> [options]");
    Options o;
    o.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--seed") {
            o.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value());
        } else if (arg == "--trace") {
            o.trace = value() == "1";
        } else if (arg == "--out") {
            o.out_dir = value();
        } else if (arg == "--cli") {
            o.cli = value();
        } else if (arg == "--references") {
            o.references = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--tamper-reference") {
            o.tamper_reference = true;
        } else if (arg == "--record-reference") {
            o.record_reference = true;
        } else if (arg == "--setup-only") {
            o.setup_only = true;
        } else {
            throw ConfigError("unknown option " + arg);
        }
    }
    if (o.out_dir.empty() || o.references.empty()) {
        throw ConfigError("--out and --references are required");
    }
    return o;
}

std::string out_path(const Options& o, const std::string& name) {
    return (fs::absolute(o.out_dir) / name).string();
}

std::string run_tag(const Options& o) {
    return o.workload + "-seed" + std::to_string(o.seed) + (o.smoke ? "-smoke" : "");
}

// ------------------------------------------------------------------ results

struct MetricDef {
    const char* name;
    const char* unit;
};

// Units and names mirror BENCHMARK.json (end_to_end / per_layer).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"job_s", "s"},
    {"inferences_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"startup.data_s", "s"},
    {"startup.weights_s", "s"},
    {"startup.quantize_s", "s"},
    {"plan.profile_s", "s"},
    {"golden.build_s", "s"},
    {"cosim.prefetch_s", "s"},
    {"cosim.blind_s", "s"},
    {"eval.record_s.p50", "s"},
    {"eval.record_s.max", "s"},
    {"eval.busy_s", "s"},
    {"sweep.wall_s", "s"},
    {"sweep.idle_s", "s"},
    {"sweep.efficiency", "ratio"},
    {"report.assemble_s", "s"},
    {"search.candidate_s.p50", "s"},
    {"search.candidate_s.p99", "s"},
    {"search.serial_s", "s"},
    {"accel.weight_faults_s", "s"},
    {"quant.forward_from_s", "s"},
    {"service.accept_s", "s"},
    {"service.first_point_s", "s"},
    {"record.gap_s.p50", "s"},
    {"record.gap_s.p90", "s"},
    {"worker.busy_frac", "ratio"},
    {"serve.cpu_s", "s"},
    {"accel.ops_unsafe", "count"},
    {"accel.faults", "count"},
    {"accel.fault_yield", "ratio"},
    {"eval.shortcircuit_frac", "ratio"},
    {"eval.prefix_layers_skipped", "count"},
    {"quant.gemm.macs", "count"},
    {"cosim.cycles", "count"},
    {"pdn.skip_frac", "ratio"},
    {"tdc.memo_frac", "ratio"},
    {"cosim.lanes.groups", "count"},
    {"runner.trace_cache_misses", "count"},
    {"search.candidates_evaluated", "count"},
    {"search.fitness_cache.hit_frac", "ratio"},
    {"net.bytes_per_record", "B"},
    {"journal.fsync_batches", "count"},
    {"serve.points_reassigned", "count"},
    {"trace.overhead_frac", "ratio"},
    {"unattributed_frac", "ratio"},
    {"host.probe_s", "s"},
};

struct RunResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    /// Measured values by metric name. A per-layer metric the workload
    /// never calls stays absent and prints as 0.
    std::map<std::string, double> values;
    /// Raw samples, written to the run record under --out.
    std::map<std::string, std::vector<double>> samples;

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
        }
    }
};

std::string format_number(double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    return buf;
}

std::string result_line(const RunResult& r, bool traced) {
    std::ostringstream line;
    line << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
         << ", \"metrics\": {";
    const char* separator = "";
    for (const MetricDef& m : traced ? kPerLayer : kEndToEnd) {
        const auto it = r.values.find(m.name);
        const double value = it == r.values.end() ? 0.0 : it->second;
        line << separator << "\"" << m.name << "\": {\"value\": " << format_number(value)
             << ", \"unit\": \"" << m.unit << "\"}";
        separator = ", ";
    }
    line << "}}";
    return line.str();
}

void write_run_record(const Options& o, const RunResult& r) {
    Json record = Json::object();
    record.set("workload", o.workload);
    record.set("seed", o.seed);
    record.set("trace", o.trace);
    record.set("attempted", r.attempted);
    record.set("failed", r.failed);
    Json failures = Json::array();
    for (const std::string& f : r.failures) failures.push(f);
    record.set("failures", std::move(failures));
    Json samples = Json::object();
    for (const auto& [name, values] : r.samples) {
        Json arr = Json::array();
        for (double v : values) arr.push(v);
        samples.set(name, std::move(arr));
    }
    record.set("samples", std::move(samples));
    std::ofstream(out_path(o, "run-" + run_tag(o) + "-trace" + (o.trace ? "1" : "0") +
                                  ".json"))
        << record.dump(2) << "\n";
}

using Counters = std::map<std::string, double>;

/// The counters of a metrics snapshot: metrics::snapshot().to_json()
/// in-process, or a child process's `--metrics-out` file.
Counters counters_from_json(const Json& snapshot) {
    Counters c;
    const Json& list = snapshot.at("counters");
    for (std::size_t i = 0; i < list.size(); ++i) {
        c[list.at(i).at("name").as_string()] =
            static_cast<double>(list.at(i).at("value").as_uint());
    }
    return c;
}

double counter(const Counters& c, const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
}

/// Per-layer counts shared by every workload (absent counters read 0).
void record_counts(RunResult& r, const Counters& c) {
    const double faults =
        counter(c, "accel.faults_duplication") + counter(c, "accel.faults_random");
    r.values["accel.ops_unsafe"] = counter(c, "accel.ops_unsafe");
    r.values["accel.faults"] = faults;
    r.values["accel.fault_yield"] = ratio(faults, counter(c, "accel.ops_unsafe"));
    r.values["eval.shortcircuit_frac"] =
        ratio(counter(c, "eval.golden_cache.shortcircuits"), counter(c, "eval.images"));
    r.values["eval.prefix_layers_skipped"] = counter(c, "eval.prefix_layers_skipped");
    r.values["quant.gemm.macs"] = counter(c, "quant.gemm.macs");
    r.values["cosim.cycles"] = counter(c, "cosim.cycles");
    r.values["pdn.skip_frac"] =
        ratio(counter(c, "pdn.steps_skipped"), counter(c, "pdn.steps"));
    r.values["tdc.memo_frac"] = ratio(counter(c, "tdc.memo_hits"), counter(c, "tdc.samples"));
    r.values["cosim.lanes.groups"] = counter(c, "cosim.lanes.groups");
    r.values["runner.trace_cache_misses"] = counter(c, "runner.trace_cache_misses");
    r.values["search.candidates_evaluated"] = counter(c, "search.candidates_evaluated");
    const double hits = counter(c, "search.fitness_cache.hits");
    r.values["search.fitness_cache.hit_frac"] =
        ratio(hits, hits + counter(c, "search.fitness_cache.misses"));
}

void write_trace(const Options& o) {
    const std::string path = out_path(o, "trace-" + run_tag(o) + ".json");
    if (!trace::write_chrome_json(path)) throw IoError("cannot write " + path);
    std::fprintf(stderr, "perfbench: Chrome trace written to %s\n", path.c_str());
}

// ------------------------------------------------------------------ victims

struct VictimSpec {
    nn::Architecture arch = nn::Architecture::LeNet5;
    std::size_t train_size = 3000;
    std::size_t test_size = 600;
    std::size_t epochs = 4;
    std::uint64_t data_seed = 42;
};

/// The CLI's victim options; --smoke shrinks them to the CI smoke size.
VictimSpec victim_spec(nn::Architecture arch, bool smoke) {
    VictimSpec v;
    v.arch = arch;
    if (smoke) {
        v.train_size = 400;
        v.test_size = 120;
        v.epochs = 1;
    }
    return v;
}

struct Victim {
    sim::Platform platform;
    data::Dataset test_set;

    const quant::QNetwork& network() const { return platform.engine().network(); }
};

struct StartupTimes {
    double weights_s = 0.0;
    double quantize_s = 0.0;
    double data_s = 0.0;
};

/// Builds the victim with the calls the CLI's load_victim makes, in the
/// same order, timing each.
std::unique_ptr<Victim> build_victim(const VictimSpec& v, StartupTimes& t) {
    nn::ZooTrainSpec spec = nn::zoo_spec(v.arch);
    spec.train_size = v.train_size;
    spec.test_size = v.test_size;
    spec.train_config.epochs = v.epochs;
    spec.data_seed = v.data_seed;
    const nn::ArchitectureInfo& info = nn::architecture_info(spec.architecture);

    nn::TrainedModel trained =
        timed("startup:weights", t.weights_s, [&] { return nn::train_or_load(spec); });
    sim::Platform platform = timed("startup:quantize", t.quantize_s, [&] {
        quant::QNetwork network = quant::quantize_sequential(
            trained.model, info.input_shape, {},
            quant::quant_format_for(spec.architecture));
        sim::PlatformConfig config;
        config.accel = accel::accel_config_for(spec.architecture);
        return sim::Platform(config, std::move(network));
    });
    data::Dataset test = timed("startup:data", t.data_s, [&] {
        return data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    });
    return std::make_unique<Victim>(Victim{std::move(platform), std::move(test)});
}

double child_setup_seconds(const Options& o);

/// Takes kSetupsPerSlot set-up samples, each a victim build from the warm
/// weight cache in a fresh process, as a CLI command pays it. Untraced
/// runs only: a traced run does not print setup_s.
void sample_setup(const Options& o, RunResult& r) {
    if (o.trace) return;
    for (int i = 0; i < kSetupsPerSlot; ++i) {
        r.samples["setup_s"].push_back(child_setup_seconds(o));
    }
}

void record_startup(RunResult& r, const StartupTimes& t) {
    r.values["startup.data_s"] = t.data_s;
    r.values["startup.weights_s"] = t.weights_s;
    r.values["startup.quantize_s"] = t.quantize_s;
}

// ---------------------------------------------------------------- references

/// The simulated statistics a campaign report must reproduce: clean and
/// per-point correct-image counts and fault counts. Accuracies are stored
/// as image counts (accuracy x images) so the comparison is exact.
Json campaign_summary(const Json& report) {
    Json s = Json::object();
    const double images = report.at("eval_images").as_number();
    s.set("clean_correct",
          static_cast<std::int64_t>(std::llround(report.at("clean_accuracy").as_number() *
                                                 images)));
    Json points = Json::array();
    const Json& pts = report.at("points");
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const Json& p = pts.at(i);
        Json row = Json::array();
        row.push(p.at("target").as_string() + " x" +
                 std::to_string(p.at("strikes").as_uint()));
        row.push(static_cast<std::int64_t>(std::llround(
            p.at("accuracy").as_number() * p.at("images").as_number())));
        row.push(p.at("duplication_faults").as_uint());
        row.push(p.at("random_faults").as_uint());
        points.push(std::move(row));
    }
    s.set("points", std::move(points));
    return s;
}

/// The search's outcome: clean accuracy, best drop (IEEE-754 bits), the
/// best fault set, and the evaluation count (a complete run spends the
/// whole budget).
Json search_summary(const sim::SearchReport& report) {
    const Json j = report.to_json();
    Json s = Json::object();
    s.set("clean_accuracy_bits", j.at("clean_accuracy_bits"));
    s.set("best_drop_bits", j.at("best_drop_bits"));
    s.set("best", j.at("best"));
    s.set("evaluations", j.at("evaluations"));
    return s;
}

/// Structural equality: objects compare by key, whatever their key order
/// (references.json may be rewritten with its keys sorted).
bool same_json(const Json& a, const Json& b) {
    if (a.is_object() || b.is_object()) {
        if (!a.is_object() || !b.is_object() || a.size() != b.size()) return false;
        for (const std::string& key : a.keys()) {
            const Json* other = b.find(key);
            if (other == nullptr || !same_json(a.at(key), *other)) return false;
        }
        return true;
    }
    if (a.is_array() || b.is_array()) {
        if (!a.is_array() || !b.is_array() || a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (!same_json(a.at(i), b.at(i))) return false;
        }
        return true;
    }
    return a.dump() == b.dump();
}

/// Alters one simulated statistic of a reference (the first point's
/// correct count, or the first index of the best fault set), so the
/// smoke test can show that the output check catches a wrong value.
Json tamper(const Json& reference) {
    Json out = Json::object();
    for (const std::string& key : reference.keys()) {
        const Json& value = reference.at(key);
        if (key != "points" && key != "best") {
            out.set(key, value);
            continue;
        }
        Json changed = Json::array();
        for (std::size_t i = 0; i < value.size(); ++i) {
            if (i > 0) {
                changed.push(value.at(i));
            } else if (key == "best") {
                changed.push(value.at(0).as_uint() + 1);
            } else {
                Json row = Json::array();
                for (std::size_t k = 0; k < value.at(0).size(); ++k) {
                    const Json& cell = value.at(0).at(k);
                    row.push(k == 1 ? Json(cell.as_int() + 1) : cell);
                }
                changed.push(std::move(row));
            }
        }
        out.set(key, std::move(changed));
    }
    return out;
}

std::optional<Json> read_json_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
}

/// The reference for this workload's inputs, keyed by the seed they were
/// made from: the recorded one from the references file, else one produced
/// by `compute` (an untimed single-thread run of the same job), kept under
/// --out for later runs in this checkout.
Json reference_for(const Options& o, std::uint64_t input_seed,
                   const std::function<Json()>& compute) {
    const std::string key = o.smoke ? o.workload + "@smoke" : o.workload;
    const std::string seed = std::to_string(input_seed);
    const std::string cached =
        out_path(o, "reference-" + key + "-seed" + seed + ".json");
    std::optional<Json> reference;
    if (!o.record_reference) {
        const std::optional<Json> recorded = read_json_file(o.references);
        if (!recorded) throw IoError("cannot read references " + o.references);
        if (const Json* table = recorded->find(key)) {
            if (const Json* entry = table->find(seed)) reference = *entry;
        }
        if (!reference) reference = read_json_file(cached);
    }
    if (!reference) {
        std::fprintf(stderr, "perfbench: computing the %s seed %s reference at 1 thread\n",
                     key.c_str(), seed.c_str());
        reference = compute();
        std::ofstream(cached) << reference->dump() << "\n";
        if (o.record_reference) {
            Json line = Json::object();
            line.set("workload", key);
            line.set("seed", seed);
            line.set("reference", *reference);
            std::printf("%s\n", line.dump().c_str());
        }
    }
    return o.tamper_reference ? tamper(*reference) : *reference;
}

/// What one job showed from outside: its output check and its time.
struct JobOutcome {
    bool ok = false;
    double job_s = 0.0;
};

/// Runs one warm-up job, then jobs until `seconds` of jobs have passed (at
/// least one), probing the host before and after each. Every job's output
/// is checked; the warm-up's times are not kept, since the first job in a
/// process pays page faults and thread start-up that later ones do not.
/// `between` takes set-up samples before the warm-up and after every job;
/// its time does not count towards `seconds`. Fills job_s and setup_s, and
/// peak_rss_mb with this process's peak over the timed jobs.
/// `job(true)` is the warm-up call.
void run_jobs(const Options& o, RunResult& r,
              const std::function<JobOutcome(bool warm_up)>& job,
              const std::function<void()>& between) {
    between();
    r.check(job(true).ok, "warm-up job output check");
    between();
    reset_peak_rss("self");
    double jobs_s = 0.0;
    do {
        const auto start = Clock::now();
        r.samples["host.probe_s"].push_back(host_probe());
        const JobOutcome out = job(false);
        r.samples["host.probe_s"].push_back(host_probe());
        jobs_s += since(start);
        r.samples["job_s"].push_back(out.job_s);
        r.check(out.ok, "job " + std::to_string(r.samples["job_s"].size()) + " output check");
        between();
    } while (jobs_s < o.seconds);
    r.values["peak_rss_mb"] = peak_rss_mib("self");
    r.values["job_s"] = median(r.samples["job_s"]);
    r.values["setup_s"] = median(r.samples["setup_s"]);
}

// ----------------------------------------------------------------- campaign

sim::CampaignConfig campaign_config(const Options& o) {
    sim::CampaignConfig cfg;
    cfg.eval_images = o.smoke ? 120 : 600;
    cfg.fault_seed = 2468 + o.seed;
    cfg.blind_offset_seed = 777 + o.seed;
    cfg.threads = kSweepThreads;
    return cfg;
}

/// Times run_campaign once; `report` receives the report JSON.
JobOutcome timed_campaign(const Victim& victim, const sim::CampaignConfig& cfg,
                          Json& report) {
    const auto start = Clock::now();
    const sim::CampaignReport result = sim::run_campaign(victim.platform, victim.test_set, cfg);
    JobOutcome out;
    out.job_s = since(start);
    out.ok = !result.partial;
    report = result.to_json();
    return out;
}

/// run_campaign's phases called one by one under benchmark spans, each
/// timed from outside. Returns the assembled report JSON, which must be
/// byte-identical to run_campaign's.
Json replay_campaign(const Victim& victim, const sim::CampaignConfig& cfg, RunResult& r) {
    const auto start = Clock::now();
    trace::Span job_span("job:campaign", "bench");
    double profile_s = 0.0, golden_s = 0.0, prefetch_s = 0.0, assemble_s = 0.0;

    const sim::CampaignPlan plan = timed("plan.profile", profile_s, [&] {
        return sim::plan_campaign(victim.platform, victim.test_set, cfg);
    });
    sim::SweepRunner runner(victim.platform, sim::RunnerConfig{cfg.threads, true});
    const std::shared_ptr<const sim::GoldenStore> golden = timed(
        "golden.build", golden_s,
        [&] { return runner.golden_view(victim.test_set, plan.eval_images); });
    timed("cosim.prefetch", prefetch_s, [&] {
        std::vector<attack::AttackScheme> schemes;
        for (const sim::PlannedCampaignPoint& p : plan.points) {
            if (p.blind_offsets == 0) schemes.push_back(p.scheme);
        }
        runner.prefetch_guided(cfg.detector, schemes);
    });

    std::vector<Json> records(plan.record_count());
    std::vector<double> record_s(plan.record_count(), 0.0);
    std::vector<double> blind_s(plan.record_count(), 0.0);
    std::vector<sim::SweepTask> tasks;
    for (std::size_t idx = 0; idx < plan.record_count(); ++idx) {
        const std::string label =
            idx == 0 ? "clean baseline" : sim::campaign_point_label(plan.points[idx - 1]);
        tasks.push_back({label, [&, idx] {
                             if (idx > 0 && plan.points[idx - 1].blind_offsets > 0) {
                                 const sim::PlannedCampaignPoint& p = plan.points[idx - 1];
                                 timed("cosim.blind", blind_s[idx], [&] {
                                     runner.blind_bundle(p.scheme, p.blind_offsets,
                                                         cfg.blind_offset_seed);
                                 });
                             }
                             records[idx] = timed("eval.record", record_s[idx], [&] {
                                 return sim::evaluate_campaign_record(
                                     victim.platform, victim.test_set, plan, runner,
                                     golden.get(), idx);
                             });
                         }});
    }
    double sweep_s = 0.0;
    const sim::RunManifest manifest =
        timed("sweep", sweep_s, [&] { return runner.run("campaign", std::move(tasks)); });
    const Json report = timed("report.assemble", assemble_s, [&] {
        const sim::CampaignReport assembled =
            sim::assemble_campaign_report(sim::plan_info(plan), records);
        return assembled.to_json();
    });
    const double job = since(start);

    std::vector<double> busy;
    for (const sim::SweepPointStats& p : manifest.points) busy.push_back(p.seconds);
    const double threads = static_cast<double>(manifest.threads);
    r.values["plan.profile_s"] = profile_s;
    r.values["golden.build_s"] = golden_s;
    r.values["cosim.prefetch_s"] = prefetch_s;
    r.values["cosim.blind_s"] = sum(blind_s);
    r.values["eval.record_s.p50"] = median(record_s);
    r.values["eval.record_s.max"] = quantile(record_s, 1.0);
    r.values["eval.busy_s"] = sum(record_s);
    r.values["sweep.wall_s"] = manifest.total_seconds;
    r.values["sweep.idle_s"] = threads * manifest.total_seconds - sum(busy);
    r.values["sweep.efficiency"] = ratio(sum(busy), threads * manifest.total_seconds);
    r.values["report.assemble_s"] = assemble_s;
    r.values["unattributed_frac"] =
        1.0 - (profile_s + golden_s + prefetch_s + sweep_s + assemble_s) / job;
    r.samples["eval.record_s"] = record_s;
    r.samples["traced_job_s"].push_back(job);
    return report;
}

RunResult campaign_workload(const Options& o) {
    RunResult r;
    const VictimSpec spec = victim_spec(nn::Architecture::LeNet5, o.smoke);
    // Warms the weight cache; the jobs use this build.
    StartupTimes warm;
    std::unique_ptr<Victim> victim = build_victim(spec, warm);

    const sim::CampaignConfig cfg = campaign_config(o);
    const Json reference = reference_for(o, o.seed, [&] {
        sim::CampaignConfig single = cfg;
        single.threads = 1;
        return campaign_summary(
            sim::run_campaign(victim->platform, victim->test_set, single).to_json());
    });
    if (o.record_reference) return r;

    std::string untraced_report;
    run_jobs(
        o, r,
        [&](bool) {
            Json report;
            JobOutcome out = timed_campaign(*victim, cfg, report);
            untraced_report = report.dump(2);
            out.ok = out.ok && same_json(campaign_summary(report), reference);
            return out;
        },
        [&] { sample_setup(o, r); });
    // Every job evaluates the same records: the points plus the clean baseline.
    const std::size_t records = reference.at("points").size() + 1;
    r.values["inferences_per_s"] =
        ratio(static_cast<double>(records * cfg.eval_images), r.values["job_s"]);

    if (o.trace) {
        trace::set_enabled(true);
        trace::set_thread_name("main");
        metrics::set_enabled(true);
        StartupTimes t;
        victim = build_victim(spec, t);
        record_startup(r, t);
        metrics::reset();
        r.samples["host.probe_s"].push_back(host_probe());
        const Json replayed = replay_campaign(*victim, cfg, r);
        r.samples["host.probe_s"].push_back(host_probe());
        // The replay must assemble exactly the report run_campaign wrote.
        r.check(replayed.dump(2) == untraced_report &&
                    same_json(campaign_summary(replayed), reference),
                "phase replay byte-identical to run_campaign");
        record_counts(r, counters_from_json(metrics::snapshot().to_json()));
        r.values["trace.overhead_frac"] =
            r.samples["traced_job_s"].front() / r.values["job_s"] - 1.0;
        write_trace(o);
    }
    return r;
}

// ------------------------------------------------------------------- search

/// The CLI's default Deep-Dup search. The search seed stays at the CLI
/// default for every --seed: DES trajectories differ up to 3x in cost
/// between search seeds (perfbench/NOTES.md), which would make the seed
/// itself the largest source of spread.
sim::WeightFaultSearchConfig search_config(const Options& o) {
    sim::WeightFaultSearchConfig cfg;
    cfg.fault_kind = accel::WeightFaultKind::Duplicate;
    cfg.threads = kSweepThreads;
    if (o.smoke) {
        cfg.spec.budget = 96;
        cfg.eval_images = 64;
    }
    return cfg;
}

RunResult search_workload(const Options& o) {
    RunResult r;
    const VictimSpec spec = victim_spec(nn::Architecture::LeNet5, o.smoke);
    // Warms the weight cache; the jobs use this build.
    StartupTimes warm;
    std::unique_ptr<Victim> victim = build_victim(spec, warm);

    const sim::WeightFaultSearchConfig cfg = search_config(o);
    const Json reference = reference_for(o, cfg.spec.seed, [&] {
        sim::WeightFaultSearchConfig single = cfg;
        single.threads = 1;
        return search_summary(
            sim::run_weight_fault_search(victim->network(), victim->test_set, single));
    });
    if (o.record_reference) return r;

    // One timed search: job time and report.
    struct SearchRun {
        sim::SearchReport report;
        sim::RunManifest manifest;
        double job_s = 0.0;
        bool ok = false;
    };
    auto run_search = [&] {
        SearchRun run;
        const auto start = Clock::now();
        run.report = sim::run_weight_fault_search(victim->network(), victim->test_set,
                                                  cfg, &run.manifest);
        run.job_s = since(start);
        run.ok = same_json(search_summary(run.report), reference);
        return run;
    };
    std::size_t candidates = 0; // the same in every job: the search is deterministic
    run_jobs(
        o, r,
        [&](bool) {
            const SearchRun run = run_search();
            candidates = run.manifest.points.size();
            return JobOutcome{run.ok, run.job_s};
        },
        [&] { sample_setup(o, r); });
    const std::size_t images = std::min(cfg.eval_images, victim->test_set.size());
    r.values["inferences_per_s"] =
        ratio(static_cast<double>(candidates * images), r.values["job_s"]);

    if (o.trace) {
        trace::set_enabled(true);
        trace::set_thread_name("main");
        metrics::set_enabled(true);
        StartupTimes t;
        victim = build_victim(spec, t);
        record_startup(r, t);
        const quant::QNetwork& network = victim->network();

        double golden_s = 0.0;
        const std::shared_ptr<const sim::GoldenStore> golden = timed(
            "golden.build", golden_s,
            [&] { return sim::build_golden_store(network, victim->test_set, images); });
        metrics::reset();
        r.samples["host.probe_s"].push_back(host_probe());
        SearchRun run;
        {
            trace::Span span("job:search", "bench");
            run = run_search();
        }
        r.samples["host.probe_s"].push_back(host_probe());
        r.check(run.ok, "traced search output check");

        std::vector<double> candidate_s;
        for (const sim::SweepPointStats& p : run.manifest.points) {
            candidate_s.push_back(p.seconds);
        }
        const double wall = run.manifest.total_seconds;
        const double threads = static_cast<double>(run.manifest.threads);
        r.values["golden.build_s"] = golden_s;
        r.values["search.candidate_s.p50"] = median(candidate_s);
        r.values["search.candidate_s.p99"] = quantile(candidate_s, 0.99);
        r.values["search.serial_s"] = run.job_s - golden_s - wall;
        r.values["sweep.wall_s"] = wall;
        r.values["sweep.idle_s"] = threads * wall - sum(candidate_s);
        r.values["sweep.efficiency"] = ratio(sum(candidate_s), threads * wall);
        r.values["unattributed_frac"] = 1.0 - (golden_s + wall) / run.job_s;
        r.values["trace.overhead_frac"] = run.job_s / r.values["job_s"] - 1.0;
        r.samples["traced_job_s"].push_back(run.job_s);
        record_counts(r, counters_from_json(metrics::snapshot().to_json()));

        // The two per-candidate primitives, timed on the best fault set.
        const attack::FaultSet& best = run.report.best;
        const std::vector<accel::WeightFault> faults =
            accel::uniform_weight_faults(best, cfg.fault_kind, cfg.fault_bit);
        std::vector<double> apply_s;
        std::optional<quant::QNetwork> faulted;
        for (int i = 0; i < 21; ++i) {
            double s = 0.0;
            faulted.emplace(timed("accel.weight_faults", s, [&] {
                return accel::apply_weight_faults(network, faults, cfg.transfer);
            }));
            apply_s.push_back(s);
        }
        const std::size_t first = quant::WeightStreamView(network).first_faulted_layer(
            best, network.layers.size());
        std::vector<double> forward_s;
        for (std::size_t i = 0; i < golden->size(); ++i) {
            const sim::GoldenEntry& e = golden->entries[i];
            const QTensor& input = first == 0 ? e.qimage : e.activations[first - 1];
            double s = 0.0;
            timed("quant.forward_from", s,
                  [&] { return faulted->forward_from(first, input); });
            forward_s.push_back(s);
        }
        r.values["accel.weight_faults_s"] = median(apply_s);
        r.values["quant.forward_from_s"] = median(forward_s);
        r.samples["search.candidate_s"] = candidate_s;
        write_trace(o);
    }
    return r;
}

// ------------------------------------------------------------------ service

/// A child process of the benchmark. Its stdout and stderr go to a log file,
/// or to a pipe whose lines a reader thread collects (for waiting on the
/// coordinator's progress lines). The destructor kills a child that is
/// still running and reaps it, so no process outlives the benchmark.
class ChildProcess {
public:
    ChildProcess(const std::vector<std::string>& args, const std::string& log_path) {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        int fds[2] = {-1, -1};
        if (log_path.empty()) {
            if (pipe2(fds, O_CLOEXEC) != 0) throw IoError("pipe failed");
            posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
            posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
        } else {
            posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
            posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
        }
        std::vector<char*> argv;
        for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (fds[1] >= 0) close(fds[1]);
        if (rc != 0) {
            if (fds[0] >= 0) close(fds[0]);
            pid_ = -1;
            throw IoError("cannot start " + args.front());
        }
        if (fds[0] >= 0) reader_ = std::thread([this, fd = fds[0]] { read_lines(fd); });
    }

    ~ChildProcess() {
        if (!reaped_) {
            kill(pid_, SIGKILL);
            wait_exit(30.0);
        }
        if (reader_.joinable()) reader_.join();
    }

    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;

    void signal(int sig) const {
        if (!reaped_) kill(pid_, sig);
    }

    /// User + system CPU seconds so far: from /proc while the child runs
    /// (clock-tick resolution), from its exit rusage once reaped.
    double cpu_seconds() const {
        if (reaped_) {
            return static_cast<double>(usage_.ru_utime.tv_sec + usage_.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(usage_.ru_utime.tv_usec +
                                              usage_.ru_stime.tv_usec);
        }
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const std::size_t paren = text.rfind(')');
        if (paren == std::string::npos) return 0.0;
        std::istringstream fields(text.substr(paren + 2));
        std::string field;
        double utime = 0.0, stime = 0.0;
        for (int i = 3; fields >> field; ++i) {
            if (i == 14) utime = std::stod(field);
            if (i == 15) {
                stime = std::stod(field);
                break;
            }
        }
        return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
    }

    /// Waits until `count` output lines satisfy `match`; false on timeout
    /// or when the output ends first.
    bool wait_for_lines(const std::function<bool(const std::string&)>& match,
                        std::size_t count, double timeout_s) {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto matched = [&] {
            return static_cast<std::size_t>(
                       std::count_if(lines_.begin(), lines_.end(), match)) >= count;
        };
        changed_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                          [&] { return eof_ || matched(); });
        return matched();
    }

    /// Waits up to `timeout_s` for the child to exit; true once reaped.
    bool wait_exit(double timeout_s) {
        const auto start = Clock::now();
        while (!reaped_) {
            int status = 0;
            const pid_t got = wait4(pid_, &status, WNOHANG, &usage_);
            if (got == pid_) {
                reaped_ = true;
                status_ = status;
                break;
            }
            if (got < 0 || since(start) > timeout_s) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return reaped_;
    }

    /// Waits for the output to end and returns its lines.
    std::vector<std::string> output() {
        if (reader_.joinable()) reader_.join();
        std::lock_guard<std::mutex> lock(mutex_);
        return lines_;
    }

    bool exited_cleanly() const {
        return reaped_ && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
    }

    /// How the child ended, for error messages.
    std::string exit_status() const {
        if (!reaped_) return "still running";
        if (WIFSIGNALED(status_)) return "killed by signal " + std::to_string(WTERMSIG(status_));
        return "exit code " + std::to_string(WEXITSTATUS(status_));
    }
    /// Peak RSS of the running child since reset_peak_rss(), from /proc.
    /// Not its exit rusage: posix_spawn runs the child in this process's
    /// memory until exec, and Linux carries that memory's high-water mark
    /// into the child's ru_maxrss, so the benchmark's own size would show.
    double peak_rss_mib() const { return ::peak_rss_mib(std::to_string(pid_)); }
    void reset_peak_rss() const { ::reset_peak_rss(std::to_string(pid_)); }

private:
    void read_lines(int fd) {
        std::string pending;
        char buf[4096];
        ssize_t n = 0;
        while ((n = read(fd, buf, sizeof(buf))) > 0) {
            pending.append(buf, static_cast<std::size_t>(n));
            std::size_t nl = 0;
            while ((nl = pending.find('\n')) != std::string::npos) {
                std::lock_guard<std::mutex> lock(mutex_);
                lines_.push_back(pending.substr(0, nl));
                pending.erase(0, nl + 1);
                changed_.notify_all();
            }
        }
        close(fd);
        std::lock_guard<std::mutex> lock(mutex_);
        eof_ = true;
        changed_.notify_all();
    }

    pid_t pid_ = -1;
    bool reaped_ = false;
    int status_ = 0;
    struct rusage usage_ {};

    std::mutex mutex_;
    std::condition_variable changed_;
    std::vector<std::string> lines_; // guarded by mutex_
    bool eof_ = false;               // guarded by mutex_
    std::thread reader_;
};

/// One set-up sample: this program rerun with --setup-only.
double child_setup_seconds(const Options& o) {
    std::vector<std::string> args = {fs::read_symlink("/proc/self/exe").string(),
                                     o.workload,      "--setup-only",
                                     "--out",         o.out_dir,
                                     "--references",  o.references};
    if (o.smoke) args.push_back("--smoke");
    ChildProcess child(args, "");
    const std::vector<std::string> lines = child.output();
    if (!child.wait_exit(60.0) || !child.exited_cleanly() || lines.empty()) {
        throw IoError("set-up process failed");
    }
    return std::stod(lines.back());
}

/// One coordinator and two single-thread workers on localhost.
struct Topology {
    std::unique_ptr<ChildProcess> serve;
    std::vector<std::unique_ptr<ChildProcess>> workers;
    std::uint16_t port = 0;
    std::string serve_log; // the coordinator's output, written once it exits
};

constexpr std::size_t kWorkers = 2;

/// Launches the topology and returns once the coordinator has accepted
/// both workers; `setup_s` receives that time. With `sinks`, every
/// process writes --metrics-out / --trace-out files under --out.
Topology launch_topology(const Options& o, const std::string& tag, bool sinks,
                         double& setup_s) {
    const auto start = Clock::now();
    Topology t;
    t.serve_log = out_path(o, tag + "-serve.log");
    const std::string port_file = out_path(o, tag + "-port.txt");
    fs::remove(port_file);
    std::vector<std::string> serve_args = {o.cli, "serve", "--port", "0", "--port-file",
                                           port_file};
    if (sinks) {
        serve_args.insert(serve_args.end(),
                          {"--metrics-out", out_path(o, tag + "-serve-metrics.json"),
                           "--trace-out", out_path(o, tag + "-serve-trace.json")});
    }
    t.serve = std::make_unique<ChildProcess>(serve_args, "");
    if (!t.serve->wait_for_lines(
            [](const std::string& l) { return l.find("listening on") != std::string::npos; },
            1, 30.0)) {
        throw IoError("coordinator did not start");
    }
    std::ifstream port_in(port_file);
    std::size_t port = 0;
    if (!(port_in >> port) || port == 0 || port > 65535) {
        throw IoError("coordinator port file unreadable");
    }
    t.port = static_cast<std::uint16_t>(port);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        const std::string name = tag + "-work" + std::to_string(w);
        std::vector<std::string> args = {o.cli, "work", "--port", std::to_string(port),
                                         "--threads", "1", "--quiet"};
        if (sinks) {
            args.insert(args.end(), {"--metrics-out", out_path(o, name + "-metrics.json"),
                                     "--trace-out", out_path(o, name + "-trace.json")});
        }
        t.workers.push_back(std::make_unique<ChildProcess>(args, out_path(o, name + ".log")));
    }
    if (!t.serve->wait_for_lines(
            [](const std::string& l) {
                return l.find("] worker#") != std::string::npos &&
                       l.find(" connected") != std::string::npos;
            },
            kWorkers, 60.0)) {
        throw IoError("coordinator did not accept both workers");
    }
    setup_s = since(start);
    return t;
}

/// Stops the coordinator (SIGTERM) and lets the workers exit on EOF.
/// Throws if any process fails to exit cleanly.
void stop_topology(Topology& t) {
    t.serve->signal(SIGTERM);
    if (t.serve->wait_exit(30.0)) {
        std::ofstream log(t.serve_log);
        for (const std::string& line : t.serve->output()) log << line << "\n";
    }
    bool clean = t.serve->exited_cleanly();
    std::string status = "serve: " + t.serve->exit_status();
    for (std::size_t w = 0; w < t.workers.size(); ++w) {
        t.workers[w]->wait_exit(30.0);
        clean = t.workers[w]->exited_cleanly() && clean;
        status += ", work" + std::to_string(w) + ": " + t.workers[w]->exit_status();
    }
    if (!clean) throw IoError("service processes did not exit cleanly (" + status + ")");
}

void reset_topology_peak_rss(const Topology& t) {
    t.serve->reset_peak_rss();
    for (const auto& w : t.workers) w->reset_peak_rss();
}

/// The summed peak RSS of the topology's processes since the last reset.
double topology_peak_rss_mib(const Topology& t) {
    double rss = t.serve->peak_rss_mib();
    for (const auto& w : t.workers) rss += w->peak_rss_mib();
    return rss;
}

Json service_manifest(const Options& o, const std::string& journal) {
    const VictimSpec v = victim_spec(nn::Architecture::MiniCnn, o.smoke);
    Json m = Json::object();
    m.set("arch", "minicnn");
    m.set("train_size", v.train_size);
    m.set("test_size", v.test_size);
    m.set("epochs", v.epochs);
    m.set("data_seed", v.data_seed);
    Json grid = Json::array();
    for (std::size_t s : sim::CampaignConfig{}.strike_grid) grid.push(s);
    m.set("strike_grid", std::move(grid));
    m.set("eval_images", o.smoke ? 60 : 200);
    m.set("fault_seed", 2468 + o.seed);
    m.set("blind_offset_seed", 777 + o.seed);
    m.set("journal", journal);
    return m;
}

/// What one campaign through the service looked like from the client.
struct ServiceCampaign {
    double accept_s = 0.0;
    double job_s = 0.0;
    std::vector<double> point_s; // arrival of each streamed point
    double worker_cpu_s = 0.0;   // summed over workers
    double serve_cpu_s = 0.0;
    std::size_t records = 0;
    bool ok = false;
};

/// Submits one campaign the way `deepstrike submit` does: connect, submit,
/// tail until the report (the client closes its connection after the
/// report, so each campaign gets its own).
ServiceCampaign submit_campaign(const Options& o, const Topology& t, const Json& reference,
                                std::size_t k) {
    ServiceCampaign c;
    const std::string journal = out_path(o, "journal-" + run_tag(o) + "-" +
                                                std::to_string(k) + ".jsonl");
    fs::remove(journal);
    const Json manifest = service_manifest(o, journal);
    std::vector<double> cpu_before;
    for (auto& w : t.workers) cpu_before.push_back(w->cpu_seconds());
    const double serve_before = t.serve->cpu_seconds();

    trace::Span span("job:service-campaign", "bench");
    const auto start = Clock::now();
    std::optional<sim::ServiceClient> client;
    std::uint64_t id = 0;
    {
        trace::Span submit_span("service.submit", "bench");
        client.emplace("127.0.0.1", t.port);
        id = client->submit(manifest);
    }
    c.accept_s = since(start);
    const sim::CampaignOutcome outcome = client->tail(id, [&](const Json&) {
        c.point_s.push_back(since(start));
        trace::instant("service.point", "bench");
    });
    c.job_s = since(start);

    for (std::size_t w = 0; w < t.workers.size(); ++w) {
        c.worker_cpu_s += t.workers[w]->cpu_seconds() - cpu_before[w];
    }
    c.serve_cpu_s = t.serve->cpu_seconds() - serve_before;
    if (!outcome.failed) {
        const Json summary = campaign_summary(outcome.report);
        c.records = summary.at("points").size() + 1;
        c.ok = !c.point_s.empty() && same_json(summary, reference);
    }
    return c;
}

RunResult service_workload(const Options& o) {
    RunResult r;
    const VictimSpec spec = victim_spec(nn::Architecture::MiniCnn, o.smoke);
    // Warm the weight cache the workers load from, untimed.
    StartupTimes warm;
    std::unique_ptr<Victim> victim = build_victim(spec, warm);

    const Json manifest = service_manifest(o, "");
    const std::size_t images = manifest.at("eval_images").as_uint();
    const Json reference = reference_for(o, o.seed, [&] {
        sim::CampaignConfig single = sim::campaign_config_from_manifest(manifest);
        single.threads = 1;
        return campaign_summary(
            sim::run_campaign(victim->platform, victim->test_set, single).to_json());
    });
    if (o.record_reference) return r;

    // Set-up samples: the launch the jobs run on, plus bare launches
    // between the jobs (untraced runs only, as in-process).
    auto sample_launches = [&] {
        if (o.trace) return;
        for (int i = 0; i < kLaunchesPerSlot; ++i) {
            double s = 0.0;
            Topology t = launch_topology(o, run_tag(o) + "-setup", false, s);
            stop_topology(t);
            r.samples["setup_s"].push_back(s);
        }
    };

    std::size_t submitted = 0; // numbers each campaign's journal
    std::size_t records = 0;   // the same in every campaign
    {
        double s = 0.0;
        Topology t = launch_topology(o, run_tag(o), false, s);
        r.samples["setup_s"].push_back(s);
        run_jobs(
            o, r,
            [&](bool warm_up) {
                const ServiceCampaign c = submit_campaign(o, t, reference, submitted++);
                if (warm_up) reset_topology_peak_rss(t);
                records = c.records;
                if (!warm_up && c.ok) {
                    r.samples["first_point_s"].push_back(c.point_s.front());
                }
                return JobOutcome{c.ok, c.job_s};
            },
            sample_launches);
        // The service's footprint is its processes', not this one's (run_jobs).
        r.values["peak_rss_mb"] = topology_peak_rss_mib(t);
        stop_topology(t);
    }
    r.values["service.first_point_s"] = median(r.samples["first_point_s"]);
    r.values["inferences_per_s"] =
        ratio(static_cast<double>(records * images), r.values["job_s"]);

    if (o.trace) {
        trace::set_enabled(true);
        trace::set_thread_name("main");
        // The victim-side calls each worker makes per campaign, timed here
        // in-process on the same victim.
        StartupTimes t;
        victim = build_victim(spec, t);
        record_startup(r, t);
        sim::CampaignConfig cfg = sim::campaign_config_from_manifest(manifest);
        cfg.threads = 1;
        double profile_s = 0.0, golden_s = 0.0;
        const sim::CampaignPlan plan = timed("plan.profile", profile_s, [&] {
            return sim::plan_campaign(victim->platform, victim->test_set, cfg);
        });
        sim::SweepRunner runner(victim->platform, sim::RunnerConfig{1, true});
        timed("golden.build", golden_s,
              [&] { return runner.golden_view(victim->test_set, plan.eval_images); });
        r.values["plan.profile_s"] = profile_s;
        r.values["golden.build_s"] = golden_s;

        // A traced topology: every process writes its metrics and trace.
        // One warm-up campaign, then campaigns for --seconds.
        std::vector<ServiceCampaign> traced;
        const std::string tag = run_tag(o) + "-traced";
        {
            double s = 0.0;
            Topology t = launch_topology(o, tag, true, s);
            r.check(submit_campaign(o, t, reference, submitted++).ok,
                    "traced warm-up campaign output check");
            const auto start = Clock::now();
            do {
                traced.push_back(submit_campaign(o, t, reference, submitted++));
                r.check(traced.back().ok, "traced campaign output check");
                r.samples["traced_job_s"].push_back(traced.back().job_s);
            } while (since(start) < o.seconds);
            stop_topology(t);
            // The coordinator's whole-life CPU (exact, from its exit rusage)
            // per campaign it served; /proc ticks are too coarse for it.
            r.values["serve.cpu_s"] =
                t.serve->cpu_seconds() / static_cast<double>(traced.size() + 1);
        }

        std::vector<double> accept, gaps, busy_frac, attributed;
        for (const ServiceCampaign& c : traced) {
            accept.push_back(c.accept_s);
            for (std::size_t i = 1; i < c.point_s.size(); ++i) {
                gaps.push_back(c.point_s[i] - c.point_s[i - 1]);
            }
            busy_frac.push_back(c.worker_cpu_s / (kWorkers * c.job_s));
            attributed.push_back((c.worker_cpu_s / kWorkers + c.serve_cpu_s) / c.job_s);
        }
        const double traced_job = median(r.samples["traced_job_s"]);
        r.values["service.accept_s"] = median(accept);
        r.values["record.gap_s.p50"] = median(gaps);
        r.values["record.gap_s.p90"] = quantile(gaps, 0.9);
        r.values["worker.busy_frac"] = median(busy_frac);
        r.values["unattributed_frac"] = 1.0 - median(attributed);
        r.values["trace.overhead_frac"] = traced_job / r.values["job_s"] - 1.0;
        r.samples["record.gap_s"] = gaps;

        // The child processes count over their lifetime: report per campaign.
        const double campaigns = static_cast<double>(traced.size() + 1);
        auto load = [&](const std::string& name) {
            const std::optional<Json> snapshot = read_json_file(out_path(o, name));
            if (!snapshot) throw IoError("missing metrics file " + name);
            Counters per_campaign = counters_from_json(*snapshot);
            for (auto& [counter_name, value] : per_campaign) value /= campaigns;
            return per_campaign;
        };
        Counters workers;
        for (std::size_t w = 0; w < kWorkers; ++w) {
            for (const auto& [name, v] :
                 load(tag + "-work" + std::to_string(w) + "-metrics.json")) {
                workers[name] += v;
            }
        }
        record_counts(r, workers);
        const Counters serve = load(tag + "-serve-metrics.json");
        r.values["net.bytes_per_record"] =
            ratio(counter(serve, "net.bytes_sent") + counter(serve, "net.bytes_received"),
                  counter(serve, "serve.results_received"));
        r.values["journal.fsync_batches"] = counter(serve, "journal.fsync_batches");
        r.values["serve.points_reassigned"] = counter(serve, "serve.points_reassigned");
        write_trace(o);
    }
    return r;
}

} // namespace

int main(int argc, char** argv) {
    // One malloc arena for every thread: with per-thread arenas the peak
    // RSS of a job depended on which thread happened to allocate and free
    // what (9% spread between runs against 1% with one arena).
    mallopt(M_ARENA_MAX, 1);
    try {
        const Options o = parse_options(argc, argv);
        fs::create_directories(o.out_dir);
        set_global_thread_count(1);
        if (o.setup_only) {
            const nn::Architecture arch = o.workload == "service-minicnn"
                                              ? nn::Architecture::MiniCnn
                                              : nn::Architecture::LeNet5;
            StartupTimes t;
            const auto start = Clock::now();
            build_victim(victim_spec(arch, o.smoke), t);
            std::printf("%.9f\n", since(start));
            return 0;
        }
        RunResult r;
        if (o.workload == "campaign-lenet5") {
            r = campaign_workload(o);
        } else if (o.workload == "search-deepdup") {
            r = search_workload(o);
        } else if (o.workload == "service-minicnn") {
            r = service_workload(o);
        } else {
            throw ConfigError("unknown workload " + o.workload);
        }
        if (o.record_reference) return 0;
        r.values["host.probe_s"] = median(r.samples["host.probe_s"]);
        write_run_record(o, r);
        for (const std::string& f : r.failures) {
            std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
        }
        std::printf("%s\n", result_line(r, o.trace).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
