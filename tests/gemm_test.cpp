// im2col/GEMM engine equivalence suite. The whole perf story rests on one
// property: integer accumulation is exact, so the GEMM formulation (either
// SIMD twin, batched or not) must reproduce the scalar per-element oracle
// kernels (tests/oracle) byte for byte — accumulators, activations,
// logits, accuracies — and campaign reports must not change with the twin
// or the thread count. These tests pin that property across all zoo
// architectures, both quantization formats and odd shapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "oracle/oracle.hpp"
#include "quant/gemm.hpp"
#include "quant/kernels.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace deepstrike::quant {
namespace {

using deepstrike::testing::random_qnetwork;
using deepstrike::testing::random_qtensor;

/// Restores the process-wide SIMD mode on scope exit so tests cannot leak
/// a forced twin into the rest of the suite.
struct SimdGuard {
    simd::Mode saved = simd::mode();
    ~SimdGuard() { simd::set_mode(saved); }
};

/// Both twins of the GEMM engine. Auto exercises AVX2 when the host has
/// it; on a non-AVX2 host Auto and Scalar coincide, which is exactly the
/// dispatch contract.
const simd::Mode kTwins[] = {simd::Mode::Auto, simd::Mode::Scalar};

QTensor random_image(const Shape& shape, std::uint64_t seed) {
    Rng rng(seed);
    QTensor img(shape);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img.at_unchecked(i) = fx::Q3_4::from_real(rng.uniform(0.0, 1.0));
    }
    return img;
}

void expect_same_tensor(const QTensor& got, const QTensor& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got.at_unchecked(i).raw(), want.at_unchecked(i).raw())
            << what << " element " << i;
    }
}

// The GEMM engine dispatches on the one simd seam: the Scalar twin never
// takes the AVX2 kernels, and Auto takes them exactly when the CPU has
// AVX2.
TEST(Gemm, DispatchContract) {
    SimdGuard guard;
    simd::set_mode(simd::Mode::Scalar);
    EXPECT_FALSE(simd::active()) << "Scalar mode must never use SIMD";
    simd::set_mode(simd::Mode::Auto);
    EXPECT_EQ(simd::active(), simd::cpu_has_avx2());
}

// The microkernel against a naive triple loop, over odd shapes chosen to
// hit every tail path (k % 16, m % 4, single rows/cols).
TEST(Gemm, MicrokernelMatchesNaiveAtOddShapes) {
    SimdGuard guard;
    Rng rng(20210721);
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {1, 3, 5},  {4, 4, 16},  {3, 7, 17},  {5, 2, 31},
        {8, 9, 150}, {2, 64, 1}, {13, 5, 48}, {6, 11, 25},
    };
    for (const auto& s : shapes) {
        const std::size_t m = s[0];
        const std::size_t n = s[1];
        const std::size_t k = s[2];
        // Padded leading dimensions exercise lda/ldb/ldc != k/n.
        const std::size_t lda = k + 3;
        const std::size_t ldb = k + 1;
        const std::size_t ldc = n + 2;
        std::vector<std::int16_t> a(m * lda);
        std::vector<std::int16_t> b(n * ldb);
        for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-128, 127));
        for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-128, 127));

        std::vector<std::int32_t> want(m * ldc, -1);
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                std::int32_t acc = 0;
                for (std::size_t kk = 0; kk < k; ++kk) {
                    acc += static_cast<std::int32_t>(a[i * lda + kk]) *
                           b[j * ldb + kk];
                }
                want[i * ldc + j] = acc;
            }
        }
        for (simd::Mode mode : kTwins) {
            simd::set_mode(mode);
            std::vector<std::int32_t> got(m * ldc, 0);
            gemm::gemm_nt_s32(a.data(), lda, b.data(), ldb, got.data(), ldc, m, n,
                              k);
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    ASSERT_EQ(got[i * ldc + j], want[i * ldc + j])
                        << simd::mode_name(mode) << " m=" << m << " n=" << n
                        << " k=" << k << " at (" << i << "," << j << ")";
                }
            }
        }
    }
}

// Layer-level equivalence: conv2d_accs / dense_accs and the production
// trace kernels against the oracle's accumulators on odd geometries the
// zoo does not cover (k=3, non-square inputs, channel counts off the
// register width).
TEST(Gemm, LayerAccsMatchOracleAtOddGeometries) {
    SimdGuard guard;
    Rng rng(77);
    struct ConvCase {
        Shape in, w;
    };
    const ConvCase convs[] = {
        {Shape{1, 7, 9}, Shape{3, 1, 3, 3}},
        {Shape{5, 11, 6}, Shape{2, 5, 5, 5}},
        {Shape{3, 6, 6}, Shape{7, 3, 2, 2}},
    };
    for (const auto& c : convs) {
        QTensor input = random_qtensor(c.in, rng, 1.0);
        QTensor weight = random_qtensor(c.w, rng, 0.5);
        QTensor bias = random_qtensor(Shape{c.w.dim(0)}, rng, 0.25);

        QTensor want;
        std::vector<fx::Acc> want_accs;
        oracle::qconv2d_trace(input, weight, bias, Activation::Tanh, want, want_accs);
        for (simd::Mode mode : kTwins) {
            simd::set_mode(mode);
            const std::string tag = simd::mode_name(mode);
            std::vector<fx::Acc> accs;
            gemm::conv2d_accs(input, weight, bias, accs);
            EXPECT_EQ(accs, want_accs) << "conv accs " << tag;
            QTensor got(want.shape());
            gemm::write_back(accs.data(), accs.size(), Activation::Tanh, got);
            expect_same_tensor(got, want, "conv " + tag);
            expect_same_tensor(qconv2d(input, weight, bias, Activation::Tanh), want,
                               "qconv2d " + tag);
            QTensor traced;
            std::vector<fx::Acc> traced_accs;
            qconv2d_trace(input, weight, bias, Activation::Tanh, traced, traced_accs);
            expect_same_tensor(traced, want, "qconv2d_trace " + tag);
            EXPECT_EQ(traced_accs, want_accs) << "qconv2d_trace accs " << tag;
        }
    }

    const std::size_t dense_shapes[][2] = {{1, 1}, {3, 17}, {10, 33}, {9, 256}};
    for (const auto& d : dense_shapes) {
        QTensor input = random_qtensor(Shape{d[1]}, rng, 1.0);
        QTensor weight = random_qtensor(Shape{d[0], d[1]}, rng, 0.5);
        QTensor bias = random_qtensor(Shape{d[0]}, rng, 0.25);

        QTensor want;
        std::vector<fx::Acc> want_accs;
        oracle::qdense_trace(input, weight, bias, Activation::None, want, want_accs);
        expect_same_tensor(oracle::qdense(input, weight, bias, Activation::None), want,
                           "oracle qdense vs its trace");
        for (simd::Mode mode : kTwins) {
            simd::set_mode(mode);
            const std::string tag = simd::mode_name(mode);
            std::vector<fx::Acc> accs;
            gemm::dense_accs(input, weight, bias, accs);
            EXPECT_EQ(accs, want_accs) << "dense accs " << tag;
            QTensor got(want.shape());
            gemm::write_back(accs.data(), accs.size(), Activation::None, got);
            expect_same_tensor(got, want, "dense " + tag);
            expect_same_tensor(qdense(input, weight, bias, Activation::None), want,
                               "qdense " + tag);
        }
    }
}

/// Quantized random-init instance of a zoo architecture in its own
/// deployment format (bnn is Binary, the rest Q3.4), so a zoo sweep covers
/// both quantization formats.
QNetwork zoo_network(const nn::ArchitectureInfo& info) {
    const QuantFormat format = quant_format_for(info.arch);
    Rng rng(derive_seed(9001, static_cast<std::uint64_t>(info.arch),
                        static_cast<std::uint64_t>(format)));
    nn::Sequential model = nn::build_architecture(info.arch, rng);
    return quantize_sequential(model, info.input_shape, {}, format);
}

// Whole-network equivalence across the full zoo: forward, forward_trace
// (activations AND accumulators, per layer) and the batched entries at
// block sizes 1/7/64, on both twins, all byte-identical to the oracle's
// per-image scalar forward pass.
TEST(Gemm, ZooNetworksByteIdenticalAcrossModesAndBatching) {
    SimdGuard guard;
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        const QNetwork net = zoo_network(info);

        const std::size_t n_images = 64;
        std::vector<QTensor> images;
        std::vector<const QTensor*> ptrs;
        images.reserve(n_images);
        for (std::size_t i = 0; i < n_images; ++i) {
            images.push_back(random_image(info.input_shape, 100 + i));
        }
        for (const QTensor& img : images) ptrs.push_back(&img);

        std::vector<QNetwork::ForwardTrace> want;
        want.reserve(n_images);
        for (const QTensor& img : images) want.push_back(oracle::forward_trace(net, img));

        const auto expect_same_trace = [&](const QNetwork::ForwardTrace& got,
                                           const QNetwork::ForwardTrace& ref,
                                           const std::string& what) {
            ASSERT_EQ(got.activations.size(), ref.activations.size()) << what;
            ASSERT_EQ(got.accumulators.size(), ref.accumulators.size()) << what;
            for (std::size_t l = 0; l < ref.activations.size(); ++l) {
                expect_same_tensor(got.activations[l], ref.activations[l],
                                   what + " act layer " + std::to_string(l));
                ASSERT_EQ(got.accumulators[l], ref.accumulators[l])
                    << what << " accs layer " << l;
            }
        };

        for (simd::Mode mode : kTwins) {
            simd::set_mode(mode);
            const std::string tag = std::string(info.name) + "/" +
                                    quant_format_name(net.format) + "/" +
                                    simd::mode_name(mode);
            // Per-image forward and forward_trace.
            for (std::size_t i = 0; i < 8; ++i) {
                const std::string what = tag + " image " + std::to_string(i);
                expect_same_tensor(net.forward(images[i]), want[i].activations.back(),
                                   what + " forward");
                expect_same_trace(net.forward_trace(images[i]), want[i],
                                  what + " trace");
            }
            // Batched forward at 1/7/64 images.
            for (std::size_t bs : {std::size_t{1}, std::size_t{7}, n_images}) {
                std::vector<const QTensor*> block(ptrs.begin(), ptrs.begin() + bs);
                const std::vector<QTensor> got = net.forward_batch(block);
                ASSERT_EQ(got.size(), bs);
                for (std::size_t i = 0; i < bs; ++i) {
                    expect_same_tensor(got[i], want[i].activations.back(),
                                       tag + " batch " + std::to_string(bs) +
                                           " image " + std::to_string(i));
                }
            }
            // Batched trace: activations and accumulators.
            std::vector<const QTensor*> block(ptrs.begin(), ptrs.begin() + 7);
            const std::vector<QNetwork::ForwardTrace> got =
                net.forward_trace_batch(block);
            ASSERT_EQ(got.size(), 7u);
            for (std::size_t i = 0; i < got.size(); ++i) {
                expect_same_trace(got[i], want[i],
                                  tag + " batched trace image " + std::to_string(i));
            }
        }
    }
}

/// Oracle accuracy over the first n images: per-image scalar forward plus
/// argmax, the quantity sim::evaluate_accuracy reports on a clean run.
double oracle_accuracy(const QNetwork& net, const data::Dataset& ds, std::size_t n) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const QTensor logits = oracle::forward(net, quantize_image(ds.images[i]));
        if (argmax(logits) == ds.labels[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

// The end-to-end invariant: a campaign report must not change a byte with
// either SIMD twin, at 1 or 8 threads, and its clean baseline must be the
// oracle's accuracy. Serializes the whole report to JSON and compares
// strings.
TEST(Gemm, CampaignReportByteIdenticalAcrossModesBatchingAndThreads) {
    SimdGuard guard;
    const QNetwork net = random_qnetwork(4242);
    sim::Platform platform(sim::PlatformConfig{}, net);
    auto ds = data::make_datasets(11, 1, 30);
    sim::CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 25;
    cfg.blind_offsets = 2;

    simd::set_mode(simd::Mode::Scalar);
    cfg.threads = 1;
    const sim::CampaignReport base = sim::run_campaign(platform, ds.test, cfg);
    EXPECT_EQ(base.clean_accuracy, oracle_accuracy(net, ds.test, cfg.eval_images));
    const std::string want = base.to_json().dump();

    for (simd::Mode mode : kTwins) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            simd::set_mode(mode);
            cfg.threads = threads;
            const std::string got =
                sim::run_campaign(platform, ds.test, cfg).to_json().dump();
            EXPECT_EQ(got, want) << simd::mode_name(mode) << " threads=" << threads;
        }
    }
}

// Accuracy evaluation without a golden cache takes the batched fault-free
// fast path (16-image GEMM blocks); on every zoo victim and both twins it
// must agree with the oracle's per-image forward plus argmax.
TEST(Gemm, UncachedEvaluationMatchesAcrossBatching) {
    SimdGuard guard;
    auto ds = data::make_datasets(13, 1, 40);
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        const QNetwork net = zoo_network(info);
        sim::PlatformConfig pcfg;
        pcfg.accel = accel::accel_config_for(info.arch);
        sim::Platform platform(pcfg, net);
        const double want = oracle_accuracy(net, ds.test, 40);
        for (simd::Mode mode : kTwins) {
            simd::set_mode(mode);
            const sim::AccuracyResult got =
                sim::evaluate_accuracy(platform, ds.test, 40, nullptr, 5);
            EXPECT_EQ(got.accuracy, want) << info.name << " " << simd::mode_name(mode);
            EXPECT_EQ(got.images, 40u);
            EXPECT_EQ(got.faults.total(), 0u);
        }
    }
}

} // namespace
} // namespace deepstrike::quant
