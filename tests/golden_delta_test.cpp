// Golden-delta propagation (quant/golden_delta.hpp) and the weight-fault
// deltas that feed it (accel::weight_fault_deltas): per-image logits from
// the sparse path must equal a full forward pass of the faulted network,
// and the deltas must state the Deep-Dup / DeepLaser semantics word for
// word, on all four zoo victims.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/weight_transfer.hpp"
#include "data/synth_mnist.hpp"
#include "nn/zoo.hpp"
#include "quant/golden_delta.hpp"
#include "quant/qnetwork.hpp"
#include "quant/weight_stream.hpp"
#include "util/rng.hpp"

namespace deepstrike {
namespace {

using accel::WeightFault;
using accel::WeightFaultKind;
using quant::WeightStreamView;

/// Quantized random-init instance of a zoo architecture. Untrained weights
/// exercise the same layer shapes, activations and formats a trained
/// victim has.
quant::QNetwork untrained_network(nn::Architecture arch) {
    Rng rng(77);
    nn::Sequential model = nn::build_architecture(arch, rng);
    const nn::ArchitectureInfo& info = nn::architecture_info(arch);
    return quant::quantize_sequential(model, info.input_shape, {},
                                      quant::quant_format_for(arch));
}

std::vector<QTensor> test_images(std::size_t n) {
    const data::Dataset test = data::make_datasets(5, 0, n).test;
    std::vector<QTensor> images;
    for (const FloatTensor& image : test.images) images.push_back(quantize(image));
    return images;
}

/// The fault semantics restated over a flat copy of the whole stream:
/// Duplicate beats copy the original previous beat, then bit flips XOR
/// the post-duplication word in fault order.
std::vector<std::int16_t> reference_stream(const quant::QNetwork& network,
                                           const std::vector<WeightFault>& faults,
                                           std::size_t beat_words) {
    const WeightStreamView view(network);
    std::vector<std::int16_t> original;
    for (const WeightStreamView::LayerSpan& span : view.spans()) {
        const QTensor& w = network.layers[span.layer].weight;
        for (std::size_t e = 0; e < span.count; ++e) original.push_back(w[e].raw());
    }
    std::vector<std::int16_t> stream = original;
    for (const WeightFault& f : faults) {
        if (f.kind != WeightFaultKind::Duplicate) continue;
        const std::size_t beat = f.index / beat_words;
        if (beat == 0) continue;
        for (std::size_t i = beat * beat_words;
             i < std::min((beat + 1) * beat_words, stream.size()); ++i) {
            stream[i] = original[i - beat_words];
        }
    }
    for (const WeightFault& f : faults) {
        if (f.kind != WeightFaultKind::BitFlip) continue;
        const auto byte = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(stream[f.index]) ^ (1u << f.bit));
        stream[f.index] = static_cast<std::int8_t>(byte);
    }
    return stream;
}

/// A random fault set of 1-6 faults; Duplicate sets often hit beat 0, a
/// beat that straddles a layer boundary, and beat 1 (which rewrites most
/// of a small first layer, so its changes take the dense pass).
std::vector<WeightFault> random_faults(const WeightStreamView& view, Rng& rng,
                                       WeightFaultKind kind, std::size_t beat_words) {
    std::vector<WeightFault> faults;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t k = 0; k < n; ++k) {
        WeightFault f;
        f.kind = kind;
        f.bit = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
        const std::int64_t pick = rng.uniform_int(0, 4);
        if (pick == 0 || pick == 4) {
            const std::size_t beat = pick == 0 ? 0 : 1;
            f.index = static_cast<std::uint32_t>(std::min(
                beat * beat_words + static_cast<std::size_t>(rng.uniform_int(
                                        0, static_cast<std::int64_t>(beat_words) - 1)),
                view.size() - 1));
        } else if (pick == 1 && view.spans().size() > 1) {
            // A word just past a layer boundary: its beat starts in the
            // previous layer unless the boundary is beat-aligned.
            const auto s = static_cast<std::size_t>(
                rng.uniform_int(1, static_cast<std::int64_t>(view.spans().size()) - 1));
            const std::size_t offset = view.spans()[s].offset;
            f.index = static_cast<std::uint32_t>(std::min(
                offset + static_cast<std::size_t>(rng.uniform_int(0, 2)), view.size() - 1));
        } else {
            f.index = static_cast<std::uint32_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(view.size()) - 1));
        }
        faults.push_back(f);
    }
    return faults;
}

/// Logits through the delta path: the changes pushed from the first
/// changed layer, applied to the golden logits.
QTensor delta_logits(const quant::QNetwork& network,
                     const quant::QNetwork::ForwardTrace& trace, const QTensor& image,
                     const quant::WeightDeltas& deltas, quant::DeltaStats& stats) {
    quant::ActivationDelta delta;
    quant::propagate_delta(network, {image, trace.activations, trace.accumulators},
                           &deltas, quant::first_changed_layer(deltas),
                           network.layers.size(), delta, stats);
    return quant::apply_delta(trace.activations.back(), delta);
}

class GoldenDeltaZoo : public ::testing::TestWithParam<nn::Architecture> {};

TEST_P(GoldenDeltaZoo, WeightFaultDeltasStateTheSemanticsWordForWord) {
    const quant::QNetwork network = untrained_network(GetParam());
    const WeightStreamView view(network);
    Rng rng(101);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t beat_words = std::vector<std::size_t>{1, 7, 64}[trial % 3];
        const WeightFaultKind kind =
            trial % 2 == 0 ? WeightFaultKind::Duplicate : WeightFaultKind::BitFlip;
        const std::vector<WeightFault> faults = random_faults(view, rng, kind, beat_words);
        const std::vector<std::int16_t> expected =
            reference_stream(network, faults, beat_words);

        const quant::WeightDeltas deltas =
            accel::weight_fault_deltas(network, faults, {beat_words});
        const quant::QNetwork applied =
            accel::apply_weight_faults(network, faults, {beat_words});
        ASSERT_EQ(deltas.size(), network.layers.size());
        for (const WeightStreamView::LayerSpan& span : view.spans()) {
            const QTensor& before = network.layers[span.layer].weight;
            const QTensor& after = applied.layers[span.layer].weight;
            std::vector<std::int16_t> from_deltas(span.count);
            for (std::size_t e = 0; e < span.count; ++e) from_deltas[e] = before[e].raw();
            std::uint32_t last = 0;
            for (std::size_t k = 0; k < deltas[span.layer].size(); ++k) {
                const quant::WeightDelta& d = deltas[span.layer][k];
                ASSERT_NE(d.delta, 0);
                ASSERT_LT(d.element, span.count);
                if (k > 0) {
                    ASSERT_GT(d.element, last) << "sorted, distinct elements";
                }
                last = d.element;
                from_deltas[d.element] =
                    static_cast<std::int16_t>(from_deltas[d.element] + d.delta);
            }
            for (std::size_t e = 0; e < span.count; ++e) {
                ASSERT_EQ(from_deltas[e], expected[span.offset + e])
                    << "trial " << trial << " word " << span.offset + e;
                ASSERT_EQ(after[e].raw(), expected[span.offset + e])
                    << "trial " << trial << " word " << span.offset + e;
            }
        }
    }
}

TEST_P(GoldenDeltaZoo, FaultedLogitsEqualAFullForwardOfTheFaultedNetwork) {
    const quant::QNetwork network = untrained_network(GetParam());
    const WeightStreamView view(network);
    const std::vector<QTensor> images = test_images(4);
    std::vector<quant::QNetwork::ForwardTrace> traces;
    for (const QTensor& image : images) traces.push_back(network.forward_trace(image));

    Rng rng(202);
    quant::DeltaStats stats;
    for (int trial = 0; trial < 48; ++trial) {
        const std::size_t beat_words = std::vector<std::size_t>{1, 7, 64}[trial % 3];
        const WeightFaultKind kind =
            trial % 2 == 0 ? WeightFaultKind::Duplicate : WeightFaultKind::BitFlip;
        const std::vector<WeightFault> faults = random_faults(view, rng, kind, beat_words);
        const quant::WeightDeltas deltas =
            accel::weight_fault_deltas(network, faults, {beat_words});
        const quant::QNetwork faulted =
            accel::apply_weight_faults(network, faults, {beat_words});
        for (std::size_t i = 0; i < images.size(); ++i) {
            ASSERT_EQ(delta_logits(network, traces[i], images[i], deltas, stats),
                      faulted.forward(images[i]))
                << nn::architecture_name(GetParam()) << " trial " << trial << " image "
                << i;
        }
    }
}

TEST_P(GoldenDeltaZoo, ActivationChangesMatchForwardFromEveryLayer) {
    // The compute-fault use (AccelEngine::run_elided): a perturbed
    // activation, unchanged weights. Change sets range from one element to
    // whole channels and the full tensor, with extreme values (|dx| up to
    // 255), so every schedule of the cost rule runs.
    const quant::QNetwork network = untrained_network(GetParam());
    const std::vector<QTensor> images = test_images(3);
    Rng rng(303);
    quant::DeltaStats stats;
    for (const QTensor& image : images) {
        const quant::QNetwork::ForwardTrace trace = network.forward_trace(image);
        for (std::size_t layer = 0; layer + 1 < network.layers.size(); ++layer) {
            for (int trial = 0; trial < 12; ++trial) {
                QTensor x = trace.activations[layer];
                const std::size_t n = x.size();
                const std::int64_t shape = trial % 4;
                std::size_t lo = 0;
                std::size_t hi = n;
                if (shape == 0) { // a few scattered elements
                    lo = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
                    hi = lo + 1;
                } else if (shape == 1 && x.shape().rank() == 3) { // one channel
                    const std::size_t plane = x.shape().dim(1) * x.shape().dim(2);
                    lo = plane * static_cast<std::size_t>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(x.shape().dim(0)) - 1));
                    hi = lo + plane;
                } else if (shape == 2) { // a contiguous run
                    lo = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
                    hi = std::min(n, lo + 1 + static_cast<std::size_t>(rng.uniform_int(0, 80)));
                }
                for (std::size_t i = lo; i < hi; ++i) {
                    const std::int64_t r = rng.uniform_int(0, 3);
                    x[i] = fx::Q3_4::from_raw(static_cast<std::int16_t>(
                        r == 0 ? -128 : r == 1 ? 127 : rng.uniform_int(-128, 127)));
                }
                quant::ActivationDelta delta;
                quant::diff_from_golden(x, trace.activations[layer], delta);
                quant::propagate_delta(network,
                                       {image, trace.activations, trace.accumulators},
                                       nullptr, layer + 1, network.layers.size(), delta,
                                       stats);
                ASSERT_EQ(quant::apply_delta(trace.activations.back(), delta),
                          network.forward_from(layer + 1, x))
                    << nn::architecture_name(GetParam()) << " layer " << layer
                    << " trial " << trial;
            }
        }
    }
    EXPECT_GT(stats.dense_layers, 0u) << "wide change sets take the dense pass";
}

INSTANTIATE_TEST_SUITE_P(AllZooVictims, GoldenDeltaZoo,
                         ::testing::Values(nn::Architecture::LeNet5,
                                           nn::Architecture::MiniCnn,
                                           nn::Architecture::Mlp,
                                           nn::Architecture::Bnn),
                         [](const ::testing::TestParamInfo<nn::Architecture>& info) {
                             return std::string(nn::architecture_name(info.param));
                         });

TEST(GoldenDelta, EmptyChangeWithoutWeightDeltasStaysGolden) {
    const quant::QNetwork network = untrained_network(nn::Architecture::LeNet5);
    const QTensor image = test_images(1).front();
    const quant::QNetwork::ForwardTrace trace = network.forward_trace(image);
    quant::ActivationDelta delta;
    quant::DeltaStats stats;
    const quant::WeightDeltas none(network.layers.size());
    quant::propagate_delta(network, {image, trace.activations, trace.accumulators}, &none,
                           0, network.layers.size(), delta, stats);
    EXPECT_TRUE(delta.empty());
    EXPECT_EQ(stats.dense_layers, 0u);
    EXPECT_EQ(quant::first_changed_layer(none), network.layers.size());
}

TEST(GoldenDelta, FirstUseOnAFreshThreadHoldsDensePassesSafely) {
    // A dense pass's output is held in per-thread scratch and read by the
    // next layer; on a thread's first call that scratch starts empty. A
    // changed input image forces dense passes through every LeNet-5 conv
    // and pool layer.
    const quant::QNetwork network = untrained_network(nn::Architecture::LeNet5);
    const QTensor image = test_images(1).front();
    const quant::QNetwork::ForwardTrace trace = network.forward_trace(image);
    QTensor changed = image;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        changed[i] = fx::Q3_4::from_raw(static_cast<std::int16_t>(16 - changed[i].raw()));
    }
    QTensor logits;
    std::size_t dense_layers = 0;
    std::thread worker([&] {
        quant::ActivationDelta delta;
        quant::DeltaStats stats;
        quant::diff_from_golden(changed, image, delta);
        quant::propagate_delta(network, {image, trace.activations, trace.accumulators},
                               nullptr, 0, network.layers.size(), delta, stats);
        logits = quant::apply_delta(trace.activations.back(), delta);
        dense_layers = stats.dense_layers;
    });
    worker.join();
    EXPECT_EQ(logits, network.forward(changed));
    EXPECT_GE(dense_layers, 3u);
}

TEST(GoldenDelta, StraddlingDuplicateBeatChangesThePreviousLayer) {
    // LeNet-5's CONV1 holds stream words 0..149, so with 64-word beats the
    // beat of word 150 (CONV2's first) is words 128..191 and starts in
    // CONV1: the first changed layer is CONV1, not the word's own layer.
    const quant::QNetwork network = untrained_network(nn::Architecture::LeNet5);
    const WeightStreamView view(network);
    ASSERT_EQ(view.spans()[1].offset, 150u);
    const std::vector<WeightFault> faults = {{150, WeightFaultKind::Duplicate, 7}};
    const quant::WeightDeltas deltas = accel::weight_fault_deltas(network, faults, {64});
    EXPECT_EQ(view.first_faulted_layer({150}, network.layers.size()), 2u);
    EXPECT_EQ(quant::first_changed_layer(deltas), 0u);
    for (const quant::WeightDelta& d : deltas[0]) EXPECT_GE(d.element, 128u);

    // A Duplicate fault in beat 0 has no predecessor to re-latch.
    const std::vector<WeightFault> beat0 = {{3, WeightFaultKind::Duplicate, 7}};
    EXPECT_EQ(quant::first_changed_layer(accel::weight_fault_deltas(network, beat0, {64})),
              network.layers.size());
}

} // namespace
} // namespace deepstrike
