#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "nn/zoo.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/error.hpp"

namespace deepstrike::nn {
namespace {

/// Tiny easy dataset: 60 clean samples (augmentation off) so a few epochs
/// converge fast in unit-test time.
data::Dataset easy_dataset(std::size_t n) {
    data::AugmentParams mild;
    mild.noise_sigma = 0.02;
    mild.max_shift_px = 0.5;
    mild.min_scale = 0.97;
    mild.max_scale = 1.03;
    mild.max_rotate_rad = 0.03;
    mild.max_shear = 0.02;
    mild.min_stroke = 0.9;
    data::Dataset ds;
    for (std::size_t i = 0; i < n; ++i) {
        data::Sample s = data::render_sample(1234, i, mild);
        ds.images.push_back(std::move(s.image));
        ds.labels.push_back(s.label);
    }
    return ds;
}

TEST(Trainer, LossDecreasesAndAccuracyImproves) {
    Rng rng(55);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    data::Dataset train_set = easy_dataset(60);

    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 10;
    config.learning_rate = 0.08;

    const double acc_before = evaluate_accuracy(net, train_set);
    const auto history = train(net, train_set, config);
    const double acc_after = evaluate_accuracy(net, train_set);

    ASSERT_EQ(history.size(), 3u);
    EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
    EXPECT_GT(acc_after, acc_before);
    EXPECT_GT(acc_after, 0.8);
}

TEST(Trainer, DeterministicGivenSeeds) {
    data::Dataset train_set = easy_dataset(30);
    TrainConfig config;
    config.epochs = 1;
    config.batch_size = 10;

    Rng rng_a(77);
    Sequential a = build_architecture(Architecture::LeNet5, rng_a);
    Rng rng_b(77);
    Sequential b = build_architecture(Architecture::LeNet5, rng_b);

    const auto ha = train(a, train_set, config);
    const auto hb = train(b, train_set, config);
    EXPECT_DOUBLE_EQ(ha[0].mean_loss, hb[0].mean_loss);
    // Weights identical after training.
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i]->value, pb[i]->value);
    }
}

TEST(Trainer, RejectsEmptyDataset) {
    Rng rng(1);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    data::Dataset empty;
    EXPECT_THROW(train(net, empty, {}), ContractError);
    EXPECT_THROW(evaluate_accuracy(net, empty), ContractError);
}

TEST(Serialize, RoundTrip) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_roundtrip.dsw";

    Rng rng_a(91);
    Sequential a = build_architecture(Architecture::LeNet5, rng_a);
    save_weights(a, path.string());

    Rng rng_b(92); // different init
    Sequential b = build_architecture(Architecture::LeNet5, rng_b);
    load_weights(b, path.string());

    auto pa = a.parameters();
    auto pb = b.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i]->value, pb[i]->value);
    }
    fs::remove(path);
}

TEST(Serialize, RejectsBadMagic) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_badmagic.dsw";
    {
        std::FILE* f = std::fopen(path.string().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("NOTAWEIGHTFILE", f);
        std::fclose(f);
    }
    Rng rng(93);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    EXPECT_THROW(load_weights(net, path.string()), FormatError);
    fs::remove(path);
}

TEST(Serialize, RejectsTruncatedFile) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_trunc.dsw";
    Rng rng(94);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string());

    // Truncate to half size.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);
    EXPECT_THROW(load_weights(net, path.string()), FormatError);
    fs::remove(path);
}

TEST(Serialize, RejectsWrongArchitecture) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_arch.dsw";
    Rng rng(95);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string());

    // A different (smaller) model must refuse these weights.
    Sequential other;
    other.emplace<Dense>(10, 4, rng);
    EXPECT_THROW(load_weights(other, path.string()), FormatError);
    fs::remove(path);
}

TEST(Serialize, MissingFileThrowsIoError) {
    Rng rng(96);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    EXPECT_THROW(load_weights(net, "/nonexistent/path.dsw"), IoError);
}

TEST(TrainOrLoad, UsesCacheOnSecondCall) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ds_cache_test";
    fs::remove_all(dir);

    ZooTrainSpec spec;
    spec.train_size = 40;
    spec.test_size = 20;
    spec.train_config.epochs = 1;
    spec.cache_dir = dir.string();

    const TrainedModel first = train_or_load(spec);
    EXPECT_FALSE(first.loaded_from_cache);
    const TrainedModel second = train_or_load(spec);
    EXPECT_TRUE(second.loaded_from_cache);
    EXPECT_DOUBLE_EQ(first.test_accuracy, second.test_accuracy);
    fs::remove_all(dir);
}

std::uint64_t bits_of(double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/// The single weights file (`*.dsw`) of a one-spec cache directory.
std::filesystem::path weights_file_in(const std::filesystem::path& dir) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".dsw") return entry.path();
    }
    return {};
}

/// The sidecar line with its recorded accuracy replaced by `accuracy`;
/// both CRC keys are kept.
std::string forge_accuracy(const std::string& line, double accuracy) {
    char bits[17];
    std::snprintf(bits, sizeof(bits), "%016llx",
                  static_cast<unsigned long long>(bits_of(accuracy)));
    return line.substr(0, line.rfind(' ') + 1) + bits + "\n";
}

ZooTrainSpec tiny_spec(const std::filesystem::path& dir) {
    ZooTrainSpec spec;
    spec.train_size = 40;
    spec.test_size = 20;
    spec.train_config.epochs = 1;
    spec.cache_dir = dir.string();
    return spec;
}

TEST(TrainOrLoad, CacheHitReturnsTheRecordedAccuracyBitForBit) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ds_cache_sidecar_test";
    fs::remove_all(dir);
    const ZooTrainSpec spec = tiny_spec(dir);

    const TrainedModel first = train_or_load(spec);
    ASSERT_FALSE(first.loaded_from_cache);
    const fs::path weights = weights_file_in(dir);
    ASSERT_TRUE(fs::exists(weights.string() + ".acc"));

    TrainedModel second = train_or_load(spec);
    ASSERT_TRUE(second.loaded_from_cache);
    EXPECT_EQ(bits_of(second.test_accuracy), bits_of(first.test_accuracy));
    const data::Dataset test = data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    EXPECT_EQ(bits_of(second.test_accuracy),
              bits_of(evaluate_accuracy(second.model, test)));

    // A cache written without a sidecar keeps working: the first load
    // computes the accuracy and records it for the next.
    fs::remove(weights.string() + ".acc");
    const TrainedModel third = train_or_load(spec);
    EXPECT_TRUE(third.loaded_from_cache);
    EXPECT_EQ(bits_of(third.test_accuracy), bits_of(first.test_accuracy));
    EXPECT_TRUE(fs::exists(weights.string() + ".acc"));
    fs::remove_all(dir);
}

TEST(TrainOrLoad, SidecarIsKeyedByTheWeightsFileAndTheTestSet) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ds_cache_sidecar_keys_test";
    fs::remove_all(dir);
    const ZooTrainSpec spec = tiny_spec(dir);
    const TrainedModel trained = train_or_load(spec);
    const fs::path weights = weights_file_in(dir);
    const fs::path sidecar = weights.string() + ".acc";
    const std::string recorded = read_file(sidecar);

    // With both keys matching, the sidecar is what answers a hit.
    const double forged = 0.123;
    ASSERT_NE(bits_of(forged), bits_of(trained.test_accuracy));
    write_file(sidecar, forge_accuracy(recorded, forged));
    EXPECT_EQ(bits_of(train_or_load(spec).test_accuracy), bits_of(forged));

    // A tampered weights file no longer matches: the accuracy is computed
    // from the weights actually loaded, and the sidecar re-keyed.
    std::string bytes = read_file(weights);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
    write_file(weights, bytes);
    TrainedModel tampered = train_or_load(spec);
    ASSERT_TRUE(tampered.loaded_from_cache);
    const data::Dataset test = data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    EXPECT_EQ(bits_of(tampered.test_accuracy),
              bits_of(evaluate_accuracy(tampered.model, test)));
    const std::string rekeyed = read_file(sidecar);
    EXPECT_NE(rekeyed.substr(0, rekeyed.rfind(' ')), recorded.substr(0, recorded.rfind(' ')));

    // The same weights and sidecar served for a different test set (here:
    // another spec's cache entry) do not match either.
    ZooTrainSpec other = spec;
    other.test_size = 10;
    const fs::path other_dir = dir / "other";
    fs::create_directories(other_dir);
    other.cache_dir = other_dir.string();
    train_or_load(other); // creates the entry whose file name is needed
    const fs::path other_weights = weights_file_in(other_dir);
    write_file(other_weights, bytes);
    write_file(other_weights.string() + ".acc", forge_accuracy(rekeyed, forged));
    TrainedModel moved = train_or_load(other);
    ASSERT_TRUE(moved.loaded_from_cache);
    const data::Dataset other_test =
        data::make_datasets(other.data_seed, 1, other.test_size).test;
    EXPECT_EQ(bits_of(moved.test_accuracy),
              bits_of(evaluate_accuracy(moved.model, other_test)));
    EXPECT_NE(bits_of(moved.test_accuracy), bits_of(forged));
    fs::remove_all(dir);
}

} // namespace
} // namespace deepstrike::nn
