// deepstrike — the adversary's (and defender's) host-side tool.
//
// Wraps the library's end-to-end flows into subcommands:
//
//   deepstrike train        train/cache a victim model, report accuracies
//   deepstrike profile      co-simulate one inference, print the recovered
//                           layer schedule seen through the TDC
//   deepstrike plan         compile an attacking scheme file for a target
//   deepstrike attack       run the guided attack, report accuracy damage
//   deepstrike search       evolve a minimal weight-transfer fault set
//                           (Deep-Dup duplication / DeepLaser bit flips)
//   deepstrike characterize sweep striker cells against the DSP rig
//   deepstrike defend       evaluate the glitch monitor + throttle defense
//   deepstrike resources    utilization + DRC table of all circuits
//
// Distributed campaign service (docs/distributed.md):
//
//   deepstrike serve        run the campaign coordinator
//   deepstrike work         run a campaign worker against a coordinator
//   deepstrike submit       submit a campaign manifest, stream the result
//   deepstrike tail         re-attach to a submitted campaign's stream
//
// Every subcommand accepts --help.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "accel/arch_profiles.hpp"
#include "accel/netlist_builder.hpp"
#include "defense/fault_train.hpp"
#include "defense/monitor.hpp"
#include "fabric/drc.hpp"
#include "fabric/resources.hpp"
#include "host/scheme_file.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"
#include "sim/coordinator.hpp"
#include "sim/cosim_lanes.hpp"
#include "sim/search.hpp"
#include "sim/dist_client.hpp"
#include "sim/experiment.hpp"
#include "sim/vcd.hpp"
#include "sim/worker.hpp"
#include "striker/striker.hpp"
#include "tdc/netlist_builder.hpp"
#include "sim/runner.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

using namespace deepstrike;

namespace {

void add_threads_option(ArgParser& parser) {
    parser.add_option("threads", "sweep worker threads (0 = all hardware threads)",
                      "0");
}

/// Applies --threads to the process-wide pool. Reports are bit-identical
/// at any setting; only wall-clock changes.
std::size_t apply_threads_option(const ArgParser& parser) {
    set_global_thread_count(parser.option_uint("threads"));
    return global_thread_count();
}

void add_engine_options(ArgParser& parser) {
    parser.add_option("lanes",
                      "co-sim lane group width (campaign points co-simulated "
                      "in SIMD lockstep; 0 or 1 disables lane batching)",
                      std::to_string(sim::cosim_lane_width()));
}

/// Applies --lanes to the process-wide co-sim lane engine
/// (sim::CosimLanes). Reports are bit-identical at any setting; only
/// wall-clock changes. The SIMD twins are chosen once per process by the
/// deepstrike::simd seam (DS_FORCE_SCALAR=1 selects the scalar twins).
void apply_engine_options(const ArgParser& parser) {
    sim::set_cosim_lane_width(parser.option_uint("lanes"));
}

void add_observability_options(ArgParser& parser) {
    parser.add_option("metrics-out",
                      "write a metrics snapshot (JSON) here after the run", "");
    parser.add_option("trace-out",
                      "write a Chrome trace-event file (Perfetto/chrome://tracing) "
                      "here after the run",
                      "");
}

/// --metrics-out / --trace-out sinks. Observe-only: enabling them changes
/// no report byte (see docs/observability.md); with both unset every
/// instrumentation site is a relaxed-load no-op.
struct ObservabilitySinks {
    std::string metrics_path;
    std::string trace_path;

    static ObservabilitySinks begin(const ArgParser& parser) {
        ObservabilitySinks sinks;
        sinks.metrics_path = parser.option("metrics-out");
        sinks.trace_path = parser.option("trace-out");
        metrics::set_enabled(!sinks.metrics_path.empty());
        if (!sinks.trace_path.empty()) {
            trace::set_enabled(true);
            trace::set_thread_name("main");
        }
        return sinks;
    }

    /// Flushes the sinks to disk; returns false if either write failed.
    bool finish() const {
        bool ok = true;
        if (!metrics_path.empty()) {
            if (metrics::write_json(metrics_path)) {
                std::printf("metrics written to %s\n", metrics_path.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
                ok = false;
            }
        }
        if (!trace_path.empty()) {
            if (trace::write_chrome_json(trace_path)) {
                std::printf("trace written to %s (load in https://ui.perfetto.dev)\n",
                            trace_path.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
                ok = false;
            }
        }
        return ok;
    }
};

void add_common_victim_options(ArgParser& parser) {
    parser.add_option("arch", "victim architecture: " + nn::architecture_list_string(),
                      "lenet5");
    parser.add_option("train-size", "training samples", "3000");
    parser.add_option("test-size", "test samples", "600");
    parser.add_option("epochs", "training epochs", "4");
    parser.add_option("data-seed", "synthetic dataset seed", "42");
}

struct Victim {
    nn::Architecture arch;
    nn::TrainedModel trained;
    sim::Platform platform;
    data::Dataset test_set;

    /// The quantized network as deployed on the accelerator (the platform
    /// owns the only copy).
    const quant::QNetwork& network() const { return platform.engine().network(); }
};

Victim load_victim(const ArgParser& parser) {
    nn::ZooTrainSpec spec =
        nn::zoo_spec(nn::parse_architecture(parser.option("arch")));
    spec.train_size = parser.option_uint("train-size");
    spec.test_size = parser.option_uint("test-size");
    spec.train_config.epochs = parser.option_uint("epochs");
    spec.data_seed = parser.option_uint("data-seed");

    const nn::ArchitectureInfo& info = nn::architecture_info(spec.architecture);
    nn::TrainedModel trained = nn::train_or_load(spec);
    quant::QNetwork network = quant::quantize_sequential(
        trained.model, info.input_shape, {},
        quant::quant_format_for(spec.architecture));
    sim::PlatformConfig platform_config;
    platform_config.accel = accel::accel_config_for(spec.architecture);
    sim::Platform platform(platform_config, std::move(network));
    data::Dataset test = data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    return Victim{spec.architecture, std::move(trained), std::move(platform),
                  std::move(test)};
}

// ----------------------------------------------------------------- train

int cmd_train(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike train", "Train (or load) a victim model.");
    add_common_victim_options(parser);
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    Victim victim = load_victim(parser);
    const nn::ArchitectureInfo& info = nn::architecture_info(victim.arch);
    std::printf("architecture        : %s (%s)\n", info.name, info.summary);
    std::printf("float test accuracy : %.4f%s\n", victim.trained.test_accuracy,
                victim.trained.loaded_from_cache ? " (cache)" : "");
    std::printf("quantized accuracy  : %.4f\n",
                victim.network().evaluate_accuracy(victim.test_set));
    std::printf("parameters          : %zu (8-bit %s)\n",
                victim.network().parameter_count(),
                quant::quant_format_name(victim.network().format));
    std::printf("\n%s", victim.platform.engine().schedule().to_string(
                            victim.platform.config().accel.fabric_clock_hz).c_str());
    return 0;
}

// --------------------------------------------------------------- profile

int cmd_profile(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike profile",
                     "Profile one victim inference through the TDC side channel.");
    add_common_victim_options(parser);
    parser.add_option("csv", "write readout trace to this CSV file", "");
    parser.add_option("vcd", "write waveform (voltage/strike/readout) to this VCD file",
                      "");
    add_observability_options(parser);
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    Victim victim = load_victim(parser);
    const sim::ProfilingRun run = sim::run_profiling(victim.platform);
    std::printf("detector: %s (trigger sample %zu)\n",
                run.detector_fired ? "fired" : "did not fire", run.trigger_sample);
    std::printf("%s", run.profile.to_string().c_str());

    const std::string csv_path = parser.option("csv");
    if (!csv_path.empty()) {
        CsvWriter csv(csv_path);
        csv.row("sample", "readout");
        for (std::size_t i = 0; i < run.cosim.tdc_readouts.size(); ++i) {
            csv.row(i, static_cast<int>(run.cosim.tdc_readouts[i]));
        }
        std::printf("trace written to %s (%zu samples)\n", csv_path.c_str(),
                    run.cosim.tdc_readouts.size());
    }
    const std::string vcd_path = parser.option("vcd");
    if (!vcd_path.empty()) {
        sim::write_cosim_vcd(vcd_path, run.cosim);
        std::printf("waveform written to %s\n", vcd_path.c_str());
    }
    return sinks.finish() ? 0 : 1;
}

// ------------------------------------------------------------------ plan

int cmd_plan(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike plan",
                     "Profile, pick a target segment, and compile an attacking "
                     "scheme file.");
    add_common_victim_options(parser);
    parser.add_option("target", "profiled segment index to strike", "2");
    parser.add_option("strikes", "number of strikes", "4500");
    parser.add_option("out", "scheme file path", "scheme.txt");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    Victim victim = load_victim(parser);
    const sim::ProfilingRun run = sim::run_profiling(victim.platform);
    const std::size_t target = parser.option_uint("target");
    if (!run.detector_fired || target >= run.profile.segments.size()) {
        std::fprintf(stderr, "target segment %zu unavailable (%zu segments found)\n",
                     target, run.profile.segments.size());
        return 1;
    }
    std::printf("%s", run.profile.to_string().c_str());

    const attack::AttackScheme scheme = attack::plan_attack(
        run.profile.segments[target], run.trigger_sample,
        victim.platform.config().samples_per_cycle(), parser.option_uint("strikes"));
    const std::string text = host::write_scheme_file(
        scheme, "target segment #" + std::to_string(target));

    const std::string out = parser.option("out");
    std::ofstream file(out, std::ios::trunc);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    file << text;
    std::printf("scheme written to %s:\n%s", out.c_str(), text.c_str());
    return 0;
}

// ---------------------------------------------------------------- attack

int cmd_attack(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike attack",
                     "Run the guided attack end to end and report the damage.");
    add_common_victim_options(parser);
    parser.add_option("scheme", "attacking scheme file (skip planning)", "");
    parser.add_option("target", "profiled segment index to strike", "2");
    parser.add_option("strikes", "number of strikes", "4500");
    parser.add_option("images", "test images to evaluate", "300");
    add_threads_option(parser);
    add_engine_options(parser);
    add_observability_options(parser);
    parser.add_flag("blind", "non-TDC-guided baseline instead");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    apply_threads_option(parser);
    apply_engine_options(parser);
    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    Victim victim = load_victim(parser);
    const std::size_t images = parser.option_uint("images");

    const sim::AccuracyResult clean =
        sim::evaluate_accuracy(victim.platform, victim.test_set, images, nullptr, 1);

    attack::AttackScheme scheme;
    const std::string scheme_path = parser.option("scheme");
    std::size_t trigger_sample = 0;
    if (!scheme_path.empty()) {
        std::ifstream file(scheme_path);
        if (!file) {
            std::fprintf(stderr, "cannot read %s\n", scheme_path.c_str());
            return 1;
        }
        std::ostringstream text;
        text << file.rdbuf();
        scheme = host::parse_scheme_file(text.str());
    } else {
        const sim::ProfilingRun run = sim::run_profiling(victim.platform);
        const std::size_t target = parser.option_uint("target");
        if (!run.detector_fired || target >= run.profile.segments.size()) {
            std::fprintf(stderr, "target segment %zu unavailable\n", target);
            return 1;
        }
        trigger_sample = run.trigger_sample;
        scheme = attack::plan_attack(run.profile.segments[target], trigger_sample,
                                     victim.platform.config().samples_per_cycle(),
                                     parser.option_uint("strikes"));
    }

    sim::AccuracyResult attacked;
    if (parser.flag("blind")) {
        const auto traces =
            sim::blind_attack_traces(victim.platform, scheme, 10, 777);
        attacked = sim::evaluate_accuracy_multi(victim.platform, victim.test_set,
                                                images, traces, 1);
    } else {
        const accel::VoltageTrace trace = sim::guided_attack_trace(
            victim.platform, attack::DetectorConfig{}, scheme);
        attacked =
            sim::evaluate_accuracy(victim.platform, victim.test_set, images, &trace, 1);
    }

    std::printf("mode                : %s\n", parser.flag("blind") ? "blind" : "guided");
    std::printf("strikes             : %zu (delay %zu, gap %zu)\n", scheme.num_strikes,
                scheme.attack_delay_cycles, scheme.gap_cycles);
    std::printf("clean accuracy      : %.4f\n", clean.accuracy);
    std::printf("under attack        : %.4f (drop %.2f%%)\n", attacked.accuracy,
                100.0 * (clean.accuracy - attacked.accuracy));
    std::printf("faults per image    : %.1f duplication, %.2f random\n",
                static_cast<double>(attacked.faults.duplication) / attacked.images,
                static_cast<double>(attacked.faults.random) / attacked.images);
    return sinks.finish() ? 0 : 1;
}

// -------------------------------------------------------------- campaign

int cmd_campaign(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike campaign",
                     "Full per-layer strike-count sweep with a structured report.");
    add_common_victim_options(parser);
    parser.add_option("strikes", "comma-separated strike grid", "500,1000,2000,3000,4500");
    parser.add_option("images", "test images per point", "200");
    parser.add_option("json", "write the JSON report here", "campaign.json");
    parser.add_option("markdown", "write the markdown report here", "");
    parser.add_option("manifest", "write the sweep-execution manifest (JSON) here", "");
    parser.add_option("journal",
                      "checkpoint journal path; completed points are appended "
                      "here so an interrupted campaign can be resumed",
                      "");
    parser.add_option("retries",
                      "rerun a failed point up to this many extra times "
                      "(capped exponential backoff)",
                      "0");
    parser.add_option("deadline",
                      "wall-clock budget in seconds (0 = unlimited); points "
                      "not started by then are skipped and the report is "
                      "marked partial",
                      "0");
    add_threads_option(parser);
    add_engine_options(parser);
    add_observability_options(parser);
    parser.add_flag("resume",
                    "resume from the --journal file: validate its fingerprint, "
                    "skip completed points, rerun only the remainder");
    parser.add_flag("no-blind", "skip the blind baseline");
    parser.add_flag("no-golden-cache",
                    "evaluate every image from scratch instead of eliding "
                    "fault-free work against the golden cache (reports are "
                    "byte-identical either way)");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    apply_threads_option(parser);
    apply_engine_options(parser);
    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    Victim victim = load_victim(parser);
    sim::CampaignConfig cfg;
    cfg.strike_grid = parser.option_uint_list("strikes");
    cfg.eval_images = parser.option_uint("images");
    if (parser.flag("no-blind")) cfg.blind_offsets = 0;
    cfg.golden_cache = !parser.flag("no-golden-cache");
    cfg.journal_path = parser.option("journal");
    cfg.resume = parser.flag("resume");
    cfg.max_point_retries = parser.option_uint("retries");
    cfg.deadline_seconds = parser.option_double("deadline");
    if (cfg.resume && cfg.journal_path.empty()) {
        std::fprintf(stderr, "--resume requires --journal <path>\n");
        return 2;
    }

    sim::RunManifest manifest;
    const sim::CampaignReport report =
        sim::run_campaign(victim.platform, victim.test_set, cfg, &manifest);
    manifest.metrics_out = sinks.metrics_path;
    manifest.trace_out = sinks.trace_path;
    std::printf("%s", report.to_markdown().c_str());
    std::printf("\nsweep: %zu points in %.2fs on %zu threads "
                "(trace cache: %zu misses, %zu hits)\n",
                manifest.points.size(), manifest.total_seconds, manifest.threads,
                manifest.trace_cache_misses, manifest.trace_cache_hits);
    if (manifest.points_resumed > 0) {
        std::printf("resumed: %zu points restored from %s\n",
                    manifest.points_resumed, cfg.journal_path.c_str());
    }
    if (report.partial) {
        std::printf("PARTIAL: deadline skipped %zu points; rerun with "
                    "--journal %s --resume to finish\n",
                    manifest.points_skipped, cfg.journal_path.c_str());
    }

    // Reports are written atomically (tmp + rename) so a kill mid-write
    // never leaves a truncated report next to a valid journal.
    const std::string json_path = parser.option("json");
    if (!json_path.empty()) {
        atomic_write_file(json_path, report.to_json().dump(2) + "\n");
        std::printf("JSON report written to %s\n", json_path.c_str());
    }
    const std::string md_path = parser.option("markdown");
    if (!md_path.empty()) {
        atomic_write_file(md_path, report.to_markdown());
        std::printf("markdown report written to %s\n", md_path.c_str());
    }
    const std::string manifest_path = parser.option("manifest");
    if (!manifest_path.empty()) {
        atomic_write_file(manifest_path, manifest.to_json().dump(2) + "\n");
        std::printf("run manifest written to %s\n", manifest_path.c_str());
    }
    return sinks.finish() ? 0 : 1;
}

// ----------------------------------------------------------------- search

int cmd_search(const std::vector<std::string>& args) {
    ArgParser parser(
        "deepstrike search",
        "Black-box search for a minimal weight-transfer fault set "
        "(Deep-Dup duplication / DeepLaser bit flips).");
    add_common_victim_options(parser);
    parser.add_option("attack", "fault model: deep-dup|deeplaser", "deep-dup");
    parser.add_option("search", "algorithm: des|greedy|random", "des");
    parser.add_option("bit", "bit to flip for deeplaser (7 = sign)", "7");
    parser.add_option("beat-words", "weight words per AXI data beat", "64");
    parser.add_option("max-faults", "largest fault set to pay for", "10");
    parser.add_option("population", "DES population / batch width", "16");
    parser.add_option("budget", "total fitness-evaluation budget", "2000");
    parser.add_option("target-drop",
                      "stop once the accuracy drop (percentage points) "
                      "reaches this (0 = spend the whole budget)",
                      "0");
    parser.add_option("images", "test images per fitness evaluation", "256");
    parser.add_option("seed", "search RNG seed", "1");
    parser.add_option("f-scale", "DES mutation scale F", "0.5");
    parser.add_option("crossover", "DES crossover rate CR", "0.7");
    parser.add_option("stall",
                      "non-improving generations before the stage advances",
                      "6");
    parser.add_option("greedy-samples",
                      "candidate additions per greedy round", "32");
    parser.add_option("config",
                      "JSON search manifest; CLI options above override "
                      "nothing — the manifest wins for search knobs "
                      "(victim options stay CLI-controlled)",
                      "");
    parser.add_option("json", "write the JSON report here", "search.json");
    parser.add_option("markdown", "write the markdown report here", "");
    parser.add_option("manifest", "write the sweep-execution manifest (JSON) here",
                      "");
    parser.add_option("journal",
                      "checkpoint journal path; each generation is appended "
                      "here so an interrupted search can be resumed",
                      "");
    add_threads_option(parser);
    add_engine_options(parser);
    add_observability_options(parser);
    parser.add_flag("resume",
                    "resume from the --journal file: validate its fingerprint "
                    "and continue from the newest recorded generation");
    parser.add_flag("no-golden-cache",
                    "run full forward passes instead of resuming faulted "
                    "evaluation from cached golden activations (reports are "
                    "byte-identical either way)");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    apply_threads_option(parser);
    apply_engine_options(parser);
    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    Victim victim = load_victim(parser);

    sim::WeightFaultSearchConfig cfg;
    const std::string config_path = parser.option("config");
    if (!config_path.empty()) {
        std::ifstream in(config_path);
        if (!in) {
            std::fprintf(stderr, "cannot read search manifest %s\n",
                         config_path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        cfg = sim::search_config_from_manifest(Json::parse(text.str()));
    } else {
        cfg.fault_kind = sim::parse_weight_attack(parser.option("attack"));
        cfg.fault_bit = static_cast<std::uint8_t>(parser.option_uint("bit"));
        cfg.transfer.beat_words = parser.option_uint("beat-words");
        cfg.spec.algorithm = attack::parse_search_algorithm(parser.option("search"));
        cfg.spec.max_faults = parser.option_uint("max-faults");
        cfg.spec.population = parser.option_uint("population");
        cfg.spec.budget = parser.option_uint("budget");
        cfg.spec.target_drop = parser.option_double("target-drop");
        cfg.spec.seed = parser.option_uint("seed");
        cfg.spec.f_scale = parser.option_double("f-scale");
        cfg.spec.crossover = parser.option_double("crossover");
        cfg.spec.stall_generations = parser.option_uint("stall");
        cfg.spec.greedy_samples = parser.option_uint("greedy-samples");
        cfg.eval_images = parser.option_uint("images");
    }
    cfg.golden_cache = !parser.flag("no-golden-cache");
    if (!parser.option("journal").empty()) {
        cfg.journal_path = parser.option("journal");
    }
    if (parser.flag("resume")) cfg.resume = true;
    if (cfg.resume && cfg.journal_path.empty()) {
        std::fprintf(stderr, "--resume requires --journal <path>\n");
        return 2;
    }

    sim::RunManifest manifest;
    const sim::SearchReport report = sim::run_weight_fault_search(
        victim.network(), victim.test_set, cfg, &manifest);
    manifest.metrics_out = sinks.metrics_path;
    manifest.trace_out = sinks.trace_path;
    std::printf("%s", report.to_markdown().c_str());
    std::printf("\nsweep: %zu candidates evaluated in %.2fs on %zu threads "
                "(%zu fitness-cache hits)\n",
                manifest.points.size(), manifest.total_seconds, manifest.threads,
                report.fitness_cache_hits);

    const std::string json_path = parser.option("json");
    if (!json_path.empty()) {
        atomic_write_file(json_path, report.to_json().dump(2) + "\n");
        std::printf("JSON report written to %s\n", json_path.c_str());
    }
    const std::string md_path = parser.option("markdown");
    if (!md_path.empty()) {
        atomic_write_file(md_path, report.to_markdown());
        std::printf("markdown report written to %s\n", md_path.c_str());
    }
    const std::string manifest_path = parser.option("manifest");
    if (!manifest_path.empty()) {
        atomic_write_file(manifest_path, manifest.to_json().dump(2) + "\n");
        std::printf("run manifest written to %s\n", manifest_path.c_str());
    }
    return sinks.finish() ? 0 : 1;
}

// ----------------------------------------------------------- characterize

int cmd_characterize(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike characterize",
                     "DSP fault characterization rig (Fig. 6).");
    parser.add_option("cells", "comma-separated striker cell counts",
                      "2000,4000,8000,12000,16000,20000,24000");
    parser.add_option("trials", "random-input trials per point", "10000");
    add_threads_option(parser);
    add_engine_options(parser);
    add_observability_options(parser);
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    apply_threads_option(parser);
    apply_engine_options(parser);
    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    sim::DspRigConfig cfg;
    cfg.trials = parser.option_uint("trials");
    const std::vector<std::size_t> cell_grid = parser.option_uint_list("cells");
    sim::RunManifest manifest;
    const std::vector<sim::DspRigResult> sweep =
        sim::run_dsp_characterization_sweep(cell_grid, cfg, 0, &manifest);
    std::printf("%10s %12s %14s %14s %14s\n", "cells", "min_V", "duplication",
                "random", "total");
    for (std::size_t i = 0; i < cell_grid.size(); ++i) {
        const sim::DspRigResult& r = sweep[i];
        std::printf("%10zu %12.4f %13.2f%% %13.2f%% %13.2f%%\n", cell_grid[i],
                    r.min_voltage, 100.0 * r.duplication_rate, 100.0 * r.random_rate,
                    100.0 * r.total_rate());
    }
    std::printf("sweep: %zu points in %.2fs on %zu threads\n",
                manifest.points.size(), manifest.total_seconds, manifest.threads);
    return sinks.finish() ? 0 : 1;
}

// ---------------------------------------------------------------- defend

int cmd_defend(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike defend",
                     "Evaluate the glitch monitor + clock throttle against a "
                     "guided attack.");
    add_common_victim_options(parser);
    parser.add_option("strikes", "attack strikes on the conv target", "4500");
    parser.add_option("images", "test images to evaluate", "200");
    parser.add_option("fault-weight",
                      "fault-injected loss weight for --fault-aware", "0.5");
    parser.add_option("inject-prob",
                      "per-activation fault probability for --fault-aware", "0.01");
    add_threads_option(parser);
    add_engine_options(parser);
    add_observability_options(parser);
    parser.add_flag("fault-aware",
                    "additionally retrain the victim with fault-aware training "
                    "(defense::fault_aware_train) and report its accuracy under "
                    "the same attack");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    apply_threads_option(parser);
    apply_engine_options(parser);
    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    Victim victim = load_victim(parser);
    const std::size_t images = parser.option_uint("images");
    const sim::ProfilingRun prof = sim::run_profiling(victim.platform);
    if (prof.profile.segments.size() < 3) {
        std::fprintf(stderr, "profiling failed\n");
        return 1;
    }

    const attack::AttackScheme scheme = attack::plan_attack(
        prof.profile.segments[2], prof.trigger_sample,
        victim.platform.config().samples_per_cycle(), parser.option_uint("strikes"));
    attack::AttackController controller(attack::DetectorConfig{}, scheme);
    sim::GuidedSource source(controller);
    const sim::CosimResult cosim = victim.platform.simulate_inference(source);

    const defense::DefenseOutcome def = defense::run_monitor(
        cosim.tdc_readouts, victim.platform.engine().schedule().total_cycles);
    const sim::AccuracyResult clean =
        sim::evaluate_accuracy(victim.platform, victim.test_set, images, nullptr, 1);
    const sim::AccuracyResult undefended = sim::evaluate_accuracy(
        victim.platform, victim.test_set, images, &cosim.capture_v, 1);
    const sim::AccuracyResult defended = sim::evaluate_accuracy_defended(
        victim.platform, victim.test_set, images, cosim.capture_v, def.throttle, 1);

    std::printf("clean accuracy      : %.4f\n", clean.accuracy);
    std::printf("under attack        : %.4f\n", undefended.accuracy);
    std::printf("with defense        : %.4f\n", defended.accuracy);
    std::printf("alarms              : %zu\n", def.alarms);
    std::printf("throttled fraction  : %.1f%% (slowdown %.2fx)\n",
                100.0 * def.throttled_fraction, def.slowdown());

    if (parser.flag("fault-aware")) {
        // Train-time defense: same init seed, schedule and data as the
        // baseline victim, but with the weighted clean + fault-injected
        // objective. The attack's voltage trace transfers unchanged — the
        // accelerator schedule (and hence its power draw) depends only on
        // the architecture, not the weights.
        nn::ZooTrainSpec spec = nn::zoo_spec(victim.arch);
        defense::FaultTrainConfig ft;
        ft.base = spec.train_config;
        ft.base.epochs = parser.option_uint("epochs");
        ft.fault_loss_weight = parser.option_double("fault-weight");
        ft.inject_probability = parser.option_double("inject-prob");

        Rng init_rng(spec.init_seed);
        nn::Sequential hardened_model = nn::build_architecture(victim.arch, init_rng);
        const data::DatasetPair datasets =
            data::make_datasets(parser.option_uint("data-seed"),
                                parser.option_uint("train-size"),
                                parser.option_uint("test-size"));
        defense::fault_aware_train(hardened_model, datasets.train, ft);

        quant::QNetwork hardened_net = quant::quantize_sequential(
            hardened_model, nn::architecture_info(victim.arch).input_shape, {},
            quant::quant_format_for(victim.arch));
        sim::PlatformConfig hardened_config;
        hardened_config.accel = accel::accel_config_for(victim.arch);
        sim::Platform hardened(hardened_config, std::move(hardened_net));

        const sim::AccuracyResult hardened_clean =
            sim::evaluate_accuracy(hardened, victim.test_set, images, nullptr, 1);
        const sim::AccuracyResult hardened_attacked = sim::evaluate_accuracy(
            hardened, victim.test_set, images, &cosim.capture_v, 1);
        std::printf("fault-aware clean   : %.4f\n", hardened_clean.accuracy);
        std::printf("fault-aware attacked: %.4f (recovers %.2f%% of the drop)\n",
                    hardened_attacked.accuracy,
                    undefended.accuracy < clean.accuracy
                        ? 100.0 * (hardened_attacked.accuracy - undefended.accuracy) /
                              (clean.accuracy - undefended.accuracy)
                        : 0.0);
    }
    return sinks.finish() ? 0 : 1;
}

// ------------------------------------------------------------- resources

int cmd_resources(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike resources",
                     "Resource utilization + DRC of all circuits.");
    parser.add_option("striker-cells", "power striker cell count", "8000");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    const fabric::DeviceModel dev = fabric::DeviceModel::pynq_z1();
    auto report = [&dev](const fabric::Netlist& nl) {
        const auto util = fabric::utilization(nl, dev);
        const std::size_t loops =
            fabric::run_drc(nl).count(fabric::DrcRule::CombinationalLoop);
        std::printf("%-24s %8zu %8zu %6zu %6zu %8.2f%% %s\n", nl.name().c_str(),
                    util.used.luts, util.used.ffs, util.used.dsps, util.used.brams,
                    util.slice_pct(), loops == 0 ? "PASS" : "FAIL");
    };

    std::printf("device: %s\n", dev.name.c_str());
    std::printf("%-24s %8s %8s %6s %6s %9s %s\n", "design", "LUT", "FF", "DSP", "BRAM",
                "slices", "DRC");
    report(tdc::build_tdc_netlist(tdc::TdcConfig::paper_config()));
    report(striker::build_striker_netlist(parser.option_uint("striker-cells")));
    report(striker::build_ro_netlist(parser.option_uint("striker-cells")));
    return 0;
}

// ----------------------------------------------------- distributed service

void add_connect_options(ArgParser& parser) {
    parser.add_option("host", "coordinator host", "127.0.0.1");
    parser.add_option("port", "coordinator TCP port", "0");
}

std::uint16_t parse_port(const ArgParser& parser) {
    const std::size_t port = parser.option_uint("port");
    if (port == 0 || port > 65535) {
        throw ConfigError("--port must be 1..65535 (got " + parser.option("port") +
                          ")");
    }
    return static_cast<std::uint16_t>(port);
}

sim::Coordinator* g_coordinator = nullptr;

void coordinator_signal(int) {
    if (g_coordinator != nullptr) g_coordinator->stop();
}

int cmd_serve(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike serve",
                     "Run the campaign coordinator: accept submitted campaign "
                     "manifests and shard their records across `deepstrike work` "
                     "processes (see docs/distributed.md).");
    parser.add_option("host", "listen address", "127.0.0.1");
    parser.add_option("port", "listen TCP port (0 = ephemeral)", "0");
    parser.add_option("port-file",
                      "write the bound port number to this file once listening "
                      "(for scripts using --port 0)",
                      "");
    parser.add_option("heartbeat-timeout",
                      "seconds of worker silence before its in-flight record is "
                      "reassigned",
                      "15");
    parser.add_option("max-campaigns",
                      "exit after this many completed campaigns (0 = serve "
                      "forever)",
                      "0");
    add_observability_options(parser);
    parser.add_flag("quiet", "suppress per-event progress lines");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    sim::CoordinatorConfig cfg;
    cfg.host = parser.option("host");
    cfg.port = static_cast<std::uint16_t>(parser.option_uint("port"));
    cfg.heartbeat_timeout_seconds = parser.option_double("heartbeat-timeout");
    cfg.max_campaigns = parser.option_uint("max-campaigns");
    cfg.verbose = !parser.flag("quiet");

    sim::Coordinator coordinator(cfg);
    const std::string port_file = parser.option("port-file");
    if (!port_file.empty()) {
        atomic_write_file(port_file, std::to_string(coordinator.port()) + "\n");
    }

    g_coordinator = &coordinator;
    std::signal(SIGINT, coordinator_signal);
    std::signal(SIGTERM, coordinator_signal);
    const int rc = coordinator.run();
    g_coordinator = nullptr;

    const sim::Coordinator::Stats& st = coordinator.stats();
    std::printf("served %zu/%zu campaigns: %zu records dispatched, %zu reassigned; "
                "%zu workers seen, %zu rejected\n",
                st.campaigns_completed, st.campaigns_submitted, st.points_dispatched,
                st.points_reassigned, st.workers_seen, st.workers_rejected);
    return sinks.finish() ? rc : 1;
}

int cmd_work(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike work",
                     "Run a campaign worker: derive plans from manifests the "
                     "coordinator announces and evaluate assigned records "
                     "(see docs/distributed.md).");
    add_connect_options(parser);
    parser.add_option("heartbeat-interval",
                      "seconds between liveness frames while evaluating", "1");
    parser.add_option("max-points",
                      "fault-injection hook for tests: evaluate this many records, "
                      "then drop the connection without replying (0 = unlimited)",
                      "0");
    add_threads_option(parser);
    add_engine_options(parser);
    add_observability_options(parser);
    parser.add_flag("quiet", "suppress per-event progress lines");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    apply_threads_option(parser);
    apply_engine_options(parser);
    const ObservabilitySinks sinks = ObservabilitySinks::begin(parser);
    sim::WorkerConfig cfg;
    cfg.host = parser.option("host");
    cfg.port = parse_port(parser);
    cfg.heartbeat_interval_seconds = parser.option_double("heartbeat-interval");
    cfg.max_points = parser.option_uint("max-points");
    cfg.verbose = !parser.flag("quiet");

    // The victim factory mirrors `load_victim`, but driven by manifest
    // keys instead of CLI flags: every worker (and any single-process
    // verification run) builds the identical victim from the identical
    // spec — the premise the coordinator's fingerprint handshake checks.
    const sim::VictimFactory factory = [](const Json& manifest) {
        nn::ZooTrainSpec spec = nn::zoo_spec(nn::parse_architecture(
            manifest.find("arch") ? manifest.at("arch").as_string() : "lenet5"));
        if (const Json* v = manifest.find("train_size")) spec.train_size = v->as_uint();
        if (const Json* v = manifest.find("test_size")) spec.test_size = v->as_uint();
        if (const Json* v = manifest.find("epochs")) {
            spec.train_config.epochs = v->as_uint();
        }
        if (const Json* v = manifest.find("data_seed")) spec.data_seed = v->as_uint();

        const nn::ArchitectureInfo& info = nn::architecture_info(spec.architecture);
        nn::TrainedModel trained = nn::train_or_load(spec);
        quant::QNetwork network = quant::quantize_sequential(
            trained.model, info.input_shape, {},
            quant::quant_format_for(spec.architecture));
        sim::PlatformConfig platform_config;
        platform_config.accel = accel::accel_config_for(spec.architecture);
        sim::Platform platform(platform_config, std::move(network));
        data::Dataset test =
            data::make_datasets(spec.data_seed, 1, spec.test_size).test;
        return sim::WorkerVictim{std::move(platform), std::move(test)};
    };

    sim::WorkerStats stats;
    const int rc = sim::run_worker(cfg, factory, &stats);
    std::printf("worker done: %zu campaigns planned, %zu records evaluated\n",
                stats.campaigns_planned, stats.records_evaluated);
    return sinks.finish() ? rc : 1;
}

/// Builds the campaign manifest (docs/distributed.md) from submit's
/// flags. Keys mirror CampaignConfig / the victim zoo spec.
Json manifest_from_options(const ArgParser& parser) {
    Json manifest = Json::object();
    manifest.set("arch", parser.option("arch"));
    manifest.set("train_size", parser.option_uint("train-size"));
    manifest.set("test_size", parser.option_uint("test-size"));
    manifest.set("epochs", parser.option_uint("epochs"));
    manifest.set("data_seed", parser.option_uint("data-seed"));
    Json grid = Json::array();
    for (std::size_t strikes : parser.option_uint_list("strikes")) grid.push(strikes);
    manifest.set("strike_grid", std::move(grid));
    manifest.set("eval_images", parser.option_uint("images"));
    if (parser.flag("no-blind")) manifest.set("blind_offsets", 0);
    if (parser.flag("no-golden-cache")) manifest.set("golden_cache", false);
    if (!parser.option("journal").empty()) {
        manifest.set("journal", parser.option("journal"));
    }
    if (parser.flag("resume")) manifest.set("resume", true);
    return manifest;
}

/// Shared tail loop of `submit` and `tail`: stream points, then write
/// the report exactly where `deepstrike campaign` would have.
int stream_campaign(sim::ServiceClient& client, std::uint64_t campaign,
                    const ArgParser& parser) {
    const bool quiet = parser.flag("quiet");
    const sim::CampaignOutcome outcome =
        client.tail(campaign, [&](const Json& point) {
            if (quiet) return;
            std::printf("[%llu] %s\n",
                        static_cast<unsigned long long>(point.at("index").as_uint()),
                        point.at("label").as_string().c_str());
        });
    if (outcome.failed) {
        std::fprintf(stderr, "campaign #%llu failed (%s): %s\n",
                     static_cast<unsigned long long>(campaign),
                     outcome.error_code.c_str(), outcome.error_detail.c_str());
        return 1;
    }
    std::printf("%s", outcome.markdown.c_str());

    const std::string json_path = parser.option("json");
    if (!json_path.empty()) {
        atomic_write_file(json_path, outcome.report.dump(2) + "\n");
        std::printf("JSON report written to %s\n", json_path.c_str());
    }
    const std::string md_path = parser.option("markdown");
    if (!md_path.empty()) {
        atomic_write_file(md_path, outcome.markdown);
        std::printf("markdown report written to %s\n", md_path.c_str());
    }
    return 0;
}

void add_report_output_options(ArgParser& parser) {
    parser.add_option("json", "write the JSON report here", "campaign.json");
    parser.add_option("markdown", "write the markdown report here", "");
}

int cmd_submit(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike submit",
                     "Submit a campaign to a coordinator and (unless --no-wait) "
                     "stream its results (see docs/distributed.md).");
    add_connect_options(parser);
    parser.add_option("manifest-file",
                      "read the campaign manifest from this JSON file instead of "
                      "building it from the flags below",
                      "");
    add_common_victim_options(parser);
    parser.add_option("strikes", "comma-separated strike grid",
                      "500,1000,2000,3000,4500");
    parser.add_option("images", "test images per point", "200");
    parser.add_option("journal",
                      "coordinator-side checkpoint journal path; pair with "
                      "--resume to finish an interrupted campaign",
                      "");
    add_report_output_options(parser);
    parser.add_flag("resume", "resume the coordinator-side --journal file");
    parser.add_flag("no-blind", "skip the blind baseline");
    parser.add_flag("no-golden-cache", "workers evaluate without the golden cache");
    parser.add_flag("no-wait", "print the campaign id and exit instead of tailing");
    parser.add_flag("quiet", "suppress per-point progress lines while tailing");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    Json manifest;
    const std::string manifest_path = parser.option("manifest-file");
    if (!manifest_path.empty()) {
        std::ifstream file(manifest_path);
        if (!file) {
            std::fprintf(stderr, "cannot read %s\n", manifest_path.c_str());
            return 1;
        }
        std::ostringstream text;
        text << file.rdbuf();
        manifest = Json::parse(text.str());
    } else {
        manifest = manifest_from_options(parser);
    }

    sim::ServiceClient client(parser.option("host"), parse_port(parser));
    const std::uint64_t campaign = client.submit(manifest);
    std::printf("campaign #%llu accepted\n",
                static_cast<unsigned long long>(campaign));
    if (parser.flag("no-wait")) return 0;
    return stream_campaign(client, campaign, parser);
}

int cmd_tail(const std::vector<std::string>& args) {
    ArgParser parser("deepstrike tail",
                     "Attach to a submitted campaign's result stream; completed "
                     "points are replayed first (see docs/distributed.md).");
    add_connect_options(parser);
    parser.add_option("campaign", "campaign id from `deepstrike submit`", "1");
    add_report_output_options(parser);
    parser.add_flag("quiet", "suppress per-point progress lines");
    parser.add_flag("help", "show this help");
    if (!parser.parse(args)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }

    sim::ServiceClient client(parser.option("host"), parse_port(parser));
    return stream_campaign(client, parser.option_uint("campaign"), parser);
}

void print_global_usage() {
    std::printf(
        "deepstrike — DAC'21 DeepStrike reproduction toolkit\n\n"
        "usage: deepstrike <command> [options]\n\n"
        "commands:\n"
        "  train         train/cache a victim model and report accuracies\n"
        "  profile       recover the victim's layer schedule via the TDC\n"
        "  plan          compile an attacking scheme file\n"
        "  attack        run the guided (or --blind) attack, report damage\n"
        "  campaign      per-layer strike sweep with JSON/markdown report\n"
        "  search        evolve a minimal weight-transfer fault set\n"
        "                (Deep-Dup duplication / DeepLaser bit flips)\n"
        "  characterize  DSP fault rates vs. striker cells (Fig. 6)\n"
        "  defend        glitch monitor + throttle evaluation\n"
        "  resources     utilization and DRC of all circuits\n\n"
        "distributed campaign service (docs/distributed.md):\n"
        "  serve         run the campaign coordinator\n"
        "  work          run a campaign worker against a coordinator\n"
        "  submit        submit a campaign manifest, stream the result\n"
        "  tail          re-attach to a submitted campaign's stream\n\n"
        "run 'deepstrike <command> --help' for per-command options.\n");
}

} // namespace

int main(int argc, char** argv) {
    Log::set_level(LogLevel::Info);
    if (argc < 2) {
        print_global_usage();
        return 2;
    }
    const std::string command = argv[1];
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

    try {
        if (command == "train") return cmd_train(args);
        if (command == "profile") return cmd_profile(args);
        if (command == "plan") return cmd_plan(args);
        if (command == "attack") return cmd_attack(args);
        if (command == "campaign") return cmd_campaign(args);
        if (command == "search") return cmd_search(args);
        if (command == "characterize") return cmd_characterize(args);
        if (command == "defend") return cmd_defend(args);
        if (command == "resources") return cmd_resources(args);
        if (command == "serve") return cmd_serve(args);
        if (command == "work") return cmd_work(args);
        if (command == "submit") return cmd_submit(args);
        if (command == "tail") return cmd_tail(args);
        if (command == "--help" || command == "help") {
            print_global_usage();
            return 0;
        }
        std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
        print_global_usage();
        return 2;
    } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
