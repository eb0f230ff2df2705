#include "nn/zoo.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "nn/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace deepstrike::nn {

const std::vector<ArchitectureInfo>& architectures() {
    static const std::vector<ArchitectureInfo> table = {
        {Architecture::LeNet5, "lenet5",
         "the paper's LeNet-5 victim (conv-pool-conv-fc-fc, tanh)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/false, /*learning_rate=*/0.05},
        {Architecture::MiniCnn, "minicnn",
         "compact CNN with a second pooling stage (conv-pool-conv-pool-fc-fc)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/false, /*learning_rate=*/0.05},
        {Architecture::Mlp, "mlp",
         "3-layer perceptron (fc-fc-fc, no convolutions)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/false, /*learning_rate=*/0.05},
        {Architecture::Bnn, "bnn",
         "binarized network: ±1 weights, sign activations (XNOR-popcount)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/true, /*learning_rate=*/0.1},
    };
    return table;
}

const ArchitectureInfo& architecture_info(Architecture arch) {
    for (const ArchitectureInfo& info : architectures()) {
        if (info.arch == arch) return info;
    }
    throw ConfigError("architecture_info: unknown architecture");
}

const char* architecture_name(Architecture arch) {
    return architecture_info(arch).name;
}

std::string architecture_list_string() {
    std::string out;
    for (const ArchitectureInfo& info : architectures()) {
        if (!out.empty()) out += '|';
        out += info.name;
    }
    return out;
}

ZooTrainSpec zoo_spec(Architecture arch) {
    ZooTrainSpec spec;
    spec.architecture = arch;
    spec.train_config.learning_rate = architecture_info(arch).learning_rate;
    return spec;
}

Architecture parse_architecture(const std::string& name) {
    for (const ArchitectureInfo& info : architectures()) {
        if (name == info.name) return info.arch;
    }
    throw ConfigError("unknown architecture '" + name + "' (" +
                      architecture_list_string() + ")");
}

Sequential build_architecture(Architecture arch, Rng& rng) {
    Sequential model;
    switch (arch) {
        case Architecture::LeNet5:
            model.emplace<Conv2d>(1, 6, 5, rng);
            model.emplace<TanhActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Conv2d>(6, 16, 5, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(16 * 8 * 8, 120, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(120, 10, rng);
            return model;
        case Architecture::MiniCnn:
            // 28 -> conv5 -> 24 -> pool -> 12 -> conv3 -> 10 -> pool -> 5
            model.emplace<Conv2d>(1, 8, 5, rng);
            model.emplace<TanhActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Conv2d>(8, 16, 3, rng);
            model.emplace<TanhActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Dense>(16 * 5 * 5, 64, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(64, 10, rng);
            return model;
        case Architecture::Mlp:
            model.emplace<Dense>(28 * 28, 128, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(128, 64, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(64, 10, rng);
            return model;
        case Architecture::Bnn:
            // Binarized victim (Moini et al.): sign activations with
            // straight-through gradients, and BinaryConnect ±1 weights in
            // the hidden layers so float training matches the binary
            // deployment. The real-valued logits layer keeps a small
            // fan-in so ±1-product sums stay inside the Q3.4 accumulator
            // writeback range.
            // 28 -> conv5 -> 24 -> sign -> pool -> 12 -> fc -> sign -> fc
            model.emplace<Binarized<Conv2d>>(1, 12, 5, rng);
            model.emplace<SignActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Binarized<Dense>>(12 * 12 * 12, 32, rng);
            model.emplace<SignActivation>();
            model.emplace<Dense>(32, 10, rng);
            return model;
    }
    throw ConfigError("build_architecture: unknown architecture");
}

namespace {

std::filesystem::path resolve_cache_dir(const std::string& dir) {
    if (const char* env = std::getenv("DEEPSTRIKE_CACHE_DIR")) {
        return std::filesystem::path(env);
    }
    return std::filesystem::path(dir);
}

std::string cache_key(const ZooTrainSpec& spec) {
    std::ostringstream os;
    os << architecture_name(spec.architecture)
       << "_d" << spec.data_seed
       << "_tr" << spec.train_size
       << "_te" << spec.test_size
       << "_i" << spec.init_seed
       << "_e" << spec.train_config.epochs
       << "_b" << spec.train_config.batch_size
       << "_lr" << spec.train_config.learning_rate
       << ".dsw";
    return os.str();
}

// Weight-cache accuracy sidecar: `<weights file>.acc`, one line
//   deepstrike-accuracy <weights crc> <test-set crc> <accuracy bits>
// (hex). It answers a cache hit's test accuracy without re-running the
// float model over the test set. Both CRCs must match: the weights file's
// bytes, and a fingerprint of the test set synthesized for this spec (so a
// changed generator invalidates it too). The accuracy is stored as its
// exact double bits, so a hit returns what the evaluation would.
constexpr const char* kSidecarTag = "deepstrike-accuracy";

std::filesystem::path sidecar_path(const std::filesystem::path& weights_file) {
    return std::filesystem::path(weights_file.string() + ".acc");
}

std::uint32_t file_crc(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot read " + path.string());
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return crc32(bytes);
}

std::uint32_t dataset_crc(const data::Dataset& set) {
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
        const FloatTensor& image = set.images[i];
        crc = crc32(image.data(), image.size() * sizeof(float), crc);
        const auto label = static_cast<std::uint64_t>(set.labels[i]);
        crc = crc32(&label, sizeof(label), crc);
    }
    return crc;
}

std::string sidecar_line(std::uint32_t weights_crc, std::uint32_t test_crc,
                         double accuracy) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &accuracy, sizeof(bits));
    char line[96];
    std::snprintf(line, sizeof(line), "%s %08x %08x %016llx\n", kSidecarTag,
                  static_cast<unsigned>(weights_crc), static_cast<unsigned>(test_crc),
                  static_cast<unsigned long long>(bits));
    return line;
}

/// The recorded accuracy, when the sidecar exists and matches both CRCs.
std::optional<double> read_sidecar(const std::filesystem::path& weights_file,
                                   std::uint32_t weights_crc, std::uint32_t test_crc) {
    std::ifstream in(sidecar_path(weights_file));
    std::string line;
    if (!in || !std::getline(in, line)) return std::nullopt;
    unsigned w = 0;
    unsigned t = 0;
    unsigned long long bits = 0;
    char tail = 0;
    char head[32] = {};
    if (std::sscanf(line.c_str(), "%31s %8x %8x %16llx%c", head, &w, &t, &bits, &tail) !=
            4 ||
        std::strcmp(head, kSidecarTag) != 0 || w != weights_crc || t != test_crc) {
        return std::nullopt;
    }
    double accuracy = 0.0;
    std::memcpy(&accuracy, &bits, sizeof(accuracy));
    return accuracy;
}

/// Records `accuracy` for the weights file as it is now on disk. A cache
/// that cannot be written only costs the next load an evaluation.
void write_sidecar(const std::filesystem::path& weights_file, std::uint32_t test_crc,
                   double accuracy) {
    try {
        atomic_write_file(sidecar_path(weights_file).string(),
                          sidecar_line(file_crc(weights_file), test_crc, accuracy));
    } catch (const Error& e) {
        log_warn("could not persist zoo accuracy sidecar: ", e.what());
    }
}

} // namespace

TrainedModel train_or_load(const ZooTrainSpec& spec) {
    expects(spec.train_size > 0 && spec.test_size > 0, "train_or_load: sizes > 0");

    TrainedModel result;
    Rng init_rng(spec.init_seed);
    result.model = build_architecture(spec.architecture, init_rng);

    const std::filesystem::path dir = resolve_cache_dir(spec.cache_dir);
    const std::filesystem::path file = dir / cache_key(spec);

    std::error_code ec;
    if (std::filesystem::exists(file, ec)) {
        try {
            load_weights(result.model, file.string());
            // A hit needs only the test set: the sidecar answers the
            // accuracy, or it is computed once and recorded.
            const data::Dataset test =
                data::make_datasets(spec.data_seed, 0, spec.test_size).test;
            const std::uint32_t test_crc = dataset_crc(test);
            if (std::optional<double> accuracy =
                    read_sidecar(file, file_crc(file), test_crc)) {
                result.test_accuracy = *accuracy;
            } else {
                result.test_accuracy = evaluate_accuracy(result.model, test);
                write_sidecar(file, test_crc, result.test_accuracy);
            }
            result.loaded_from_cache = true;
            return result;
        } catch (const Error& e) {
            log_warn("zoo cache load failed (", e.what(), "); retraining");
            // A failed load may have overwritten some parameters: train
            // from the same fresh initialization as an empty cache would.
            Rng fresh_rng(spec.init_seed);
            result.model = build_architecture(spec.architecture, fresh_rng);
        }
    }

    const data::DatasetPair datasets =
        data::make_datasets(spec.data_seed, spec.train_size, spec.test_size);
    log_info("training ", architecture_name(spec.architecture), " (", spec.train_size,
             " samples, ", spec.train_config.epochs, " epochs)...");
    train(result.model, datasets.train, spec.train_config);
    result.test_accuracy = evaluate_accuracy(result.model, datasets.test);
    log_info("trained ", architecture_name(spec.architecture),
             " test accuracy: ", result.test_accuracy);

    std::filesystem::create_directories(dir, ec);
    try {
        save_weights(result.model, file.string());
        write_sidecar(file, dataset_crc(datasets.test), result.test_accuracy);
    } catch (const Error& e) {
        log_warn("could not persist zoo cache: ", e.what());
    }
    return result;
}

} // namespace deepstrike::nn
