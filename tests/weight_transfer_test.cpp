// Weight-stream view + weight-transfer fault hook (the second fault
// injection surface: Deep-Dup duplication, DeepLaser bit flips).
#include <gtest/gtest.h>

#include <cstdlib>

#include "accel/weight_transfer.hpp"
#include "quant/qnetwork.hpp"
#include "quant/weight_stream.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace deepstrike;
using accel::WeightFault;
using accel::WeightFaultKind;
using accel::WeightTransferParams;
using quant::WeightStreamView;

namespace {

/// Reads stream word `index` of `network` through the view.
fx::Q3_4 word_at(const quant::QNetwork& network, const WeightStreamView& view,
                 std::size_t index) {
    const WeightStreamView::WordRef ref = view.locate(index);
    return network.layers[ref.layer].weight[ref.element];
}

} // namespace

TEST(WeightStreamView, CoversExactlyTheConvAndDenseWeights) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(11);
    const WeightStreamView view(net);

    std::size_t expected = 0;
    for (const quant::QLayer& layer : net.layers) {
        if (layer.kind == quant::QLayerKind::Conv ||
            layer.kind == quant::QLayerKind::Dense) {
            expected += layer.weight.size();
        }
    }
    EXPECT_EQ(view.size(), expected);
    // LeNet-5 shape: conv1 150 + conv2 2400 + fc1 122880 + fc2 1200.
    EXPECT_EQ(view.size(), 150u + 2400u + 122880u + 1200u);
    // The pool layer carries no span: 4 addressable layers out of 5.
    EXPECT_EQ(view.spans().size(), 4u);
}

TEST(WeightStreamView, LocateMapsSpanBoundaries) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(12);
    const WeightStreamView view(net);

    // conv1 occupies [0, 150): first and last word.
    EXPECT_EQ(view.locate(0).layer, 0u);
    EXPECT_EQ(view.locate(0).element, 0u);
    EXPECT_EQ(view.locate(149).layer, 0u);
    EXPECT_EQ(view.locate(149).element, 149u);
    // conv2 starts at 150 (layer index 2 — POOL1 is layer 1).
    EXPECT_EQ(view.locate(150).layer, 2u);
    EXPECT_EQ(view.locate(150).element, 0u);
    // Last word of the stream lands in FC2 (layer 4).
    EXPECT_EQ(view.locate(view.size() - 1).layer, 4u);
    EXPECT_THROW(view.locate(view.size()), ContractError);
}

TEST(WeightStreamView, FirstFaultedLayer) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(13);
    const WeightStreamView view(net);
    const std::size_t layers = net.layers.size();

    EXPECT_EQ(view.first_faulted_layer({}, layers), layers);
    EXPECT_EQ(view.first_faulted_layer({0}, layers), 0u);
    EXPECT_EQ(view.first_faulted_layer({150}, layers), 2u);
    // fc1 starts at 150 + 2400 = 2550.
    EXPECT_EQ(view.first_faulted_layer({2550}, layers), 3u);
    EXPECT_EQ(view.first_faulted_layer({2550, 149}, layers), 0u);
}

TEST(WeightTransfer, EmptyFaultSetIsByteIdentical) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(21);
    const quant::QNetwork deployed = accel::apply_weight_faults(net, {});
    ASSERT_EQ(deployed.layers.size(), net.layers.size());
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
        EXPECT_EQ(deployed.layers[li].weight, net.layers[li].weight);
        EXPECT_EQ(deployed.layers[li].bias, net.layers[li].bias);
    }
    const QTensor image = deepstrike::testing::random_qimage(99);
    EXPECT_EQ(deployed.forward(image), net.forward(image));
}

TEST(WeightTransfer, DuplicateOracleWholeBeatFromPrevious) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(22);
    const WeightStreamView view(net);
    WeightTransferParams params;
    params.beat_words = 8; // small beats make the oracle arithmetic obvious

    // Fault stream index 20 -> beat 2 (words 16..23) takes beat 1's data
    // (words 8..15); every other word is untouched.
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{20, WeightFaultKind::Duplicate, 0}}, params);
    for (std::size_t i = 0; i < 64; ++i) {
        const fx::Q3_4 expected =
            (i >= 16 && i < 24) ? word_at(net, view, i - 8) : word_at(net, view, i);
        EXPECT_EQ(word_at(faulted, view, i).raw(), expected.raw()) << "word " << i;
    }
}

TEST(WeightTransfer, DuplicateBeatZeroIsNoOp) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(23);
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{3, WeightFaultKind::Duplicate, 0}},
        WeightTransferParams{8});
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
        EXPECT_EQ(faulted.layers[li].weight, net.layers[li].weight);
    }
}

TEST(WeightTransfer, DuplicateBeatStraddlesLayerBoundary) {
    // conv1 holds stream words [0, 150); with 64-word beats, beat 2 covers
    // words 128..191 — the tail of conv1 and the head of conv2. The DMA
    // bursts the flat stream, so the duplication must straddle the layers.
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(24);
    const WeightStreamView view(net);
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{130, WeightFaultKind::Duplicate, 0}},
        WeightTransferParams{64});
    for (std::size_t i = 128; i < 192; ++i) {
        EXPECT_EQ(word_at(faulted, view, i).raw(), word_at(net, view, i - 64).raw())
            << "word " << i;
    }
    EXPECT_EQ(word_at(faulted, view, 127).raw(), word_at(net, view, 127).raw());
    EXPECT_EQ(word_at(faulted, view, 192).raw(), word_at(net, view, 192).raw());
}

TEST(WeightTransfer, DuplicateSourcesAreOriginalNotChained) {
    // Two adjacent duplications: beat 2 must copy the ORIGINAL beat 1,
    // not beat 1 post-fault — the result is order-independent.
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(25);
    const WeightStreamView view(net);
    const WeightTransferParams params{8};
    const std::vector<WeightFault> ab = {
        WeightFault{8, WeightFaultKind::Duplicate, 0},
        WeightFault{16, WeightFaultKind::Duplicate, 0}};
    const std::vector<WeightFault> ba = {ab[1], ab[0]};
    const quant::QNetwork f1 = accel::apply_weight_faults(net, ab, params);
    const quant::QNetwork f2 = accel::apply_weight_faults(net, ba, params);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_EQ(word_at(f1, view, i).raw(), word_at(f2, view, i).raw());
    }
    // Beat 2 carries original beat 1, not beat 0 (the chained reading).
    for (std::size_t i = 16; i < 24; ++i) {
        EXPECT_EQ(word_at(f1, view, i).raw(), word_at(net, view, i - 8).raw());
    }
}

TEST(WeightTransfer, BitFlipOracleSignBit) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(26);
    const WeightStreamView view(net);
    const std::size_t target = 2600; // lands in FC1

    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{target, WeightFaultKind::BitFlip, 7}});
    const std::int16_t before = word_at(net, view, target).raw();
    const std::int16_t after = word_at(faulted, view, target).raw();
    // Hand-computed: XOR of bit 7 on the 8-bit two's-complement code,
    // sign-extended — the value moves by exactly -+8.0 (128 raw units).
    const auto expected = static_cast<std::int16_t>(static_cast<std::int8_t>(
        static_cast<std::uint8_t>(before) ^ 0x80u));
    EXPECT_EQ(after, expected);
    EXPECT_EQ(std::abs(after - before), 128);
    // Only the targeted word changed.
    EXPECT_EQ(word_at(faulted, view, target - 1).raw(),
              word_at(net, view, target - 1).raw());
    EXPECT_EQ(word_at(faulted, view, target + 1).raw(),
              word_at(net, view, target + 1).raw());
}

TEST(WeightTransfer, BitFlipLowBitAndInvolution) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(27);
    const WeightStreamView view(net);
    const quant::QNetwork once = accel::apply_weight_faults(
        net, {WeightFault{5, WeightFaultKind::BitFlip, 0}});
    EXPECT_EQ(std::abs(word_at(once, view, 5).raw() - word_at(net, view, 5).raw()), 1);
    // Flipping the same bit twice restores the original word.
    const quant::QNetwork twice = accel::apply_weight_faults(
        once, {WeightFault{5, WeightFaultKind::BitFlip, 0}});
    EXPECT_EQ(word_at(twice, view, 5).raw(), word_at(net, view, 5).raw());
}

TEST(WeightTransfer, RandomizedNoFaultPathMatchesPlainForward) {
    // The faulted deployment of an EMPTY fault set must be byte-equivalent
    // to the plain network on random images, for random networks.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const quant::QNetwork net = deepstrike::testing::random_qnetwork(seed * 31);
        const quant::QNetwork deployed = accel::apply_weight_faults(net, {});
        const QTensor image = deepstrike::testing::random_qimage(seed * 77);
        EXPECT_EQ(deployed.forward(image), net.forward(image)) << "seed " << seed;
    }
}

TEST(WeightTransfer, ForwardFromMatchesFullForwardAtEveryLayer) {
    // The golden-prefix elision primitive: resuming the forward pass at
    // layer k from the recorded activation reproduces the suffix
    // byte-exactly, faulted weights or not.
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(41);
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{2600, WeightFaultKind::BitFlip, 7}});
    const QTensor image = deepstrike::testing::random_qimage(42);

    EXPECT_EQ(net.forward_from(0, image), net.forward(image));
    const std::vector<QTensor> acts = faulted.forward_trace(image).activations;
    const QTensor full = faulted.forward(image);
    for (std::size_t k = 1; k <= faulted.layers.size(); ++k) {
        const QTensor resumed = k == faulted.layers.size()
                                    ? acts.back()
                                    : faulted.forward_from(k, acts[k - 1]);
        EXPECT_EQ(resumed, full) << "resume at layer " << k;
    }
}

TEST(WeightTransfer, UniformFaultsAndValidation) {
    const auto faults = accel::uniform_weight_faults(
        {3, 9, 1}, WeightFaultKind::BitFlip, 6);
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[1].index, 9u);
    EXPECT_EQ(faults[1].kind, WeightFaultKind::BitFlip);
    EXPECT_EQ(faults[1].bit, 6);

    const quant::QNetwork net = deepstrike::testing::random_qnetwork(51);
    const WeightStreamView view(net);
    EXPECT_THROW(accel::apply_weight_faults(
                     net, {WeightFault{static_cast<std::uint32_t>(view.size()),
                                       WeightFaultKind::BitFlip, 0}}),
                 ContractError);
    EXPECT_THROW(accel::apply_weight_faults(
                     net, {WeightFault{0, WeightFaultKind::BitFlip, 8}}),
                 ContractError);
    EXPECT_THROW(accel::apply_weight_faults(
                     net, {WeightFault{0, WeightFaultKind::Duplicate, 0}},
                     WeightTransferParams{0}),
                 ContractError);
}

TEST(WeightTransfer, KindNamesRoundTrip) {
    EXPECT_STREQ(accel::weight_fault_kind_name(WeightFaultKind::Duplicate),
                 "duplicate");
    EXPECT_STREQ(accel::weight_fault_kind_name(WeightFaultKind::BitFlip),
                 "bit-flip");
    EXPECT_EQ(accel::parse_weight_fault_kind("duplicate"),
              WeightFaultKind::Duplicate);
    EXPECT_EQ(accel::parse_weight_fault_kind("bit-flip"), WeightFaultKind::BitFlip);
    EXPECT_THROW(accel::parse_weight_fault_kind("laser"), ConfigError);
}
