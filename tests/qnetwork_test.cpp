#include <gtest/gtest.h>

#include <filesystem>

#include "accel/engine.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::quant {
namespace {

using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qtensor;
using deepstrike::testing::random_qnetwork;

TEST(QLayer, ShapesAndOpCounts) {
    Rng rng(1);
    QLayer conv{QLayerKind::Conv, "C", random_qtensor(Shape{8, 3, 3, 3}, rng),
                random_qtensor(Shape{8}, rng), true};
    EXPECT_EQ(conv.output_shape(Shape{3, 10, 10}), Shape({8, 8, 8}));
    EXPECT_EQ(conv.op_count(Shape{3, 10, 10}), 8u * 8 * 8 * 3 * 3 * 3);
    EXPECT_EQ(conv.in_channels(), 3u);

    QLayer pool{QLayerKind::Pool2, "P", {}, {}, false};
    EXPECT_EQ(pool.output_shape(Shape{8, 8, 8}), Shape({8, 4, 4}));
    EXPECT_EQ(pool.op_count(Shape{8, 8, 8}), 8u * 4 * 4 * 4);

    QLayer dense{QLayerKind::Dense, "D", random_qtensor(Shape{10, 128}, rng),
                 random_qtensor(Shape{10}, rng), false};
    EXPECT_EQ(dense.output_shape(Shape{128}), Shape({10}));
    EXPECT_EQ(dense.op_count(Shape{128}), 1280u);
}

TEST(QLayer, RejectsMismatchedShapes) {
    Rng rng(2);
    QLayer conv{QLayerKind::Conv, "C", random_qtensor(Shape{8, 3, 3, 3}, rng),
                random_qtensor(Shape{8}, rng), false};
    EXPECT_THROW(conv.output_shape(Shape{2, 10, 10}), ContractError);
    QLayer pool{QLayerKind::Pool2, "P", {}, {}, false};
    EXPECT_THROW(pool.output_shape(Shape{8, 7, 8}), ContractError);
}

TEST(QNetwork, ForwardActivationsMatchForward) {
    const QNetwork net = random_qnetwork(3);
    for (std::uint64_t s = 0; s < 5; ++s) {
        const QTensor img = random_qimage(50 + s);
        EXPECT_EQ(net.forward_trace(img).activations.back(), net.forward(img))
            << "seed " << s;
    }
}

TEST(QNetwork, LayerOutputShapesChainLeNet) {
    const QNetwork net = random_qnetwork(4);
    const auto shapes = net.layer_output_shapes();
    ASSERT_EQ(shapes.size(), 5u);
    EXPECT_EQ(shapes[0], Shape({6, 24, 24}));
    EXPECT_EQ(shapes[1], Shape({6, 12, 12}));
    EXPECT_EQ(shapes[2], Shape({16, 8, 8}));
    EXPECT_EQ(shapes[3], Shape({120}));
    EXPECT_EQ(shapes[4], Shape({10}));
}

TEST(QNetwork, LayerLookupByLabel) {
    const QNetwork net = random_qnetwork(5);
    EXPECT_EQ(net.layer("CONV2").weight.shape(), Shape({16, 6, 5, 5}));
    EXPECT_THROW(net.layer("NOPE"), ContractError);
}

TEST(QNetwork, ParameterCount) {
    const QNetwork net = random_qnetwork(6);
    const std::size_t expected = (6 * 25 + 6) + (16 * 6 * 25 + 16) +
                                 (120 * 1024 + 120) + (10 * 120 + 10);
    EXPECT_EQ(net.parameter_count(), expected);
}

TEST(QuantizeSequential, LeNetStructure) {
    Rng rng(7);
    nn::Sequential model = nn::build_architecture(nn::Architecture::LeNet5, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});

    ASSERT_EQ(net.layers.size(), 5u);
    const char* labels[] = {"CONV1", "POOL1", "CONV2", "FC1", "FC2"};
    const Activation acts[] = {Activation::Tanh, Activation::None, Activation::Tanh,
                               Activation::Tanh, Activation::None};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(net.layers[i].label, labels[i]);
        EXPECT_EQ(net.layers[i].activation, acts[i]);
    }
}

TEST(QuantizeSequential, MiniCnnQuantizes) {
    Rng rng(8);
    nn::Sequential model = nn::build_architecture(nn::Architecture::MiniCnn, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    ASSERT_EQ(net.layers.size(), 6u);
    EXPECT_EQ(net.layers[0].label, "CONV1");
    EXPECT_EQ(net.layers[1].label, "POOL1");
    EXPECT_EQ(net.layers[3].label, "POOL2");
    EXPECT_EQ(net.layers[4].label, "FC1");
    EXPECT_EQ(net.layers[4].activation, Activation::Tanh);
    EXPECT_EQ(net.layers[5].activation, Activation::None);
    const auto shapes = net.layer_output_shapes();
    EXPECT_EQ(shapes.back(), Shape({10}));
}

TEST(QuantizeSequential, MlpQuantizes) {
    Rng rng(9);
    nn::Sequential model = nn::build_architecture(nn::Architecture::Mlp, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    ASSERT_EQ(net.layers.size(), 3u);
    // Dense layers flatten the [1,28,28] input implicitly.
    EXPECT_EQ(net.layer_output_shapes().back(), Shape({10}));
}

TEST(QuantizeSequential, CustomLabels) {
    Rng rng(10);
    nn::Sequential model = nn::build_architecture(nn::Architecture::Mlp, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28},
                                             {"INPUT_FC", "HIDDEN", "LOGITS"});
    EXPECT_EQ(net.layers[0].label, "INPUT_FC");
    EXPECT_EQ(net.layers[2].label, "LOGITS");
    EXPECT_THROW(quantize_sequential(model, Shape{1, 28, 28}, {"ONLY_ONE"}),
                 ConfigError);
}

TEST(QuantizeSequential, QuantizedTracksFloat) {
    Rng rng(11);
    nn::Sequential model = nn::build_architecture(nn::Architecture::MiniCnn, rng);
    auto ds = data::make_datasets(77, 100, 30);
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    nn::train(model, ds.train, cfg);

    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    std::size_t agree = 0;
    for (std::size_t i = 0; i < ds.test.size(); ++i) {
        if (argmax(model.forward(ds.test.images[i])) == net.predict(ds.test.images[i])) {
            ++agree;
        }
    }
    EXPECT_GE(agree, ds.test.size() * 7 / 10);
}

TEST(QPrimitives, ReluOnQ34Grid) {
    EXPECT_EQ(qrelu(fx::Q3_4::from_real(-1.0)), fx::Q3_4::zero());
    EXPECT_EQ(qrelu(fx::Q3_4::zero()), fx::Q3_4::zero());
    EXPECT_EQ(qrelu(fx::Q3_4::from_real(2.5)), fx::Q3_4::from_real(2.5));
}

TEST(QPrimitives, AvgPoolRoundsToNearest) {
    QTensor input(Shape{1, 2, 2});
    input.at(0, 0, 0) = fx::Q3_4::from_raw(1);
    input.at(0, 0, 1) = fx::Q3_4::from_raw(2);
    input.at(0, 1, 0) = fx::Q3_4::from_raw(3);
    input.at(0, 1, 1) = fx::Q3_4::from_raw(4);
    // sum 10 -> 10/4 = 2.5 rounds away from zero to 3.
    EXPECT_EQ(qavgpool2(input).at(0, 0, 0).raw(), 3);

    QTensor negative(Shape{1, 2, 2});
    negative.at(0, 0, 0) = fx::Q3_4::from_raw(-1);
    negative.at(0, 0, 1) = fx::Q3_4::from_raw(-2);
    negative.at(0, 1, 0) = fx::Q3_4::from_raw(-3);
    negative.at(0, 1, 1) = fx::Q3_4::from_raw(-4);
    EXPECT_EQ(qavgpool2(negative).at(0, 0, 0).raw(), -3);

    QTensor odd(Shape{1, 2, 3});
    EXPECT_THROW(qavgpool2(odd), ContractError);
}

TEST(QPrimitives, ConvWithReluActivation) {
    Rng rng(21);
    const QTensor input = random_qtensor(Shape{1, 4, 4}, rng, 2.0);
    const QTensor weight = random_qtensor(Shape{2, 1, 3, 3}, rng, 1.0);
    QTensor bias(Shape{2});
    const QTensor out = qconv2d(input, weight, bias, Activation::Relu);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GE(out.at_unchecked(i), fx::Q3_4::zero());
    }
    // ReLU output equals max(linear output, 0) elementwise.
    const QTensor linear = qconv2d(input, weight, bias, Activation::None);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out.at_unchecked(i), std::max(linear.at_unchecked(i), fx::Q3_4::zero()));
    }
}

TEST(QuantizeSequential, ReluAvgPoolNetwork) {
    // A network exercising the extended layer set end to end.
    Rng rng(22);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 4, 5, rng);
    model.emplace<nn::ReluActivation>();
    model.emplace<nn::AvgPool2d>();
    model.emplace<nn::Dense>(4 * 12 * 12, 10, rng);

    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    ASSERT_EQ(net.layers.size(), 3u);
    EXPECT_EQ(net.layers[0].activation, Activation::Relu);
    EXPECT_EQ(net.layers[1].kind, QLayerKind::AvgPool2);

    // Quantized golden tracks the float network on random inputs.
    const QTensor img = random_qimage(23);
    const accel::AccelEngine engine(net, accel::AccelConfig::pynq_z1(), 2021);
    EXPECT_EQ(engine.run_clean(img).logits, net.forward(img));
}

// ---- generic network on the cycle-level engine --------------------------

TEST(GenericEngine, MiniCnnCleanRunMatchesGolden) {
    Rng rng(12);
    nn::Sequential model = nn::build_architecture(nn::Architecture::MiniCnn, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    const accel::AccelEngine engine(net, accel::AccelConfig::pynq_z1(), 2021);

    for (std::uint64_t s = 0; s < 3; ++s) {
        const QTensor img = random_qimage(200 + s);
        const accel::RunResult run = engine.run_clean(img);
        EXPECT_EQ(run.logits, net.forward(img)) << "seed " << s;
        EXPECT_EQ(run.faults_total.total(), 0u);
    }
}

TEST(GenericEngine, MiniCnnScheduleStructure) {
    Rng rng(13);
    nn::Sequential model = nn::build_architecture(nn::Architecture::MiniCnn, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    const accel::Schedule sched =
        accel::build_schedule(net, accel::AccelConfig::pynq_z1());

    // 6 layers -> 6 computational segments + 7 stalls.
    ASSERT_EQ(sched.segments.size(), 13u);
    EXPECT_EQ(sched.segment_for("CONV1").total_ops, 8u * 24 * 24 * 25);
    EXPECT_EQ(sched.segment_for("CONV2").total_ops, 16u * 10 * 10 * 8 * 9);
    EXPECT_EQ(sched.segment_for("FC1").total_ops, 400u * 64);
    // Single-channel conv1 is underutilized; conv2 is not.
    EXPECT_LT(sched.segment_for("CONV1").ops_per_cycle,
              sched.segment_for("CONV2").ops_per_cycle);
}

TEST(GenericEngine, MiniCnnFaultAttributionByLabel) {
    Rng rng(14);
    nn::Sequential model = nn::build_architecture(nn::Architecture::MiniCnn, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    const accel::AccelEngine engine(net, accel::AccelConfig::pynq_z1(), 2021);

    accel::VoltageTrace trace(engine.schedule().total_cycles * 2, 1.0);
    const auto& seg = engine.schedule().segment_for("CONV2");
    for (std::size_t i = seg.start_cycle * 2; i < seg.end_cycle() * 2; ++i) {
        trace[i] = 0.945;
    }
    Rng fault_rng(1);
    const accel::RunResult run = engine.run(random_qimage(15), &trace, fault_rng);
    EXPECT_GT(run.faults_for("CONV2").total(), 0u);
    EXPECT_EQ(run.faults_for("CONV1").total(), 0u);
    EXPECT_EQ(run.faults_for("FC1").total(), 0u);
    EXPECT_EQ(run.faults_total.total(), run.faults_for("CONV2").total());
}

TEST(GenericEngine, MlpHasNoConvExposure) {
    Rng rng(15);
    nn::Sequential model = nn::build_architecture(nn::Architecture::Mlp, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    const accel::AccelEngine engine(net, accel::AccelConfig::pynq_z1(), 2021);
    // All segments are Dense: faults require dipping below the (lower)
    // FC safe voltage, so a conv-level glitch does nothing.
    accel::VoltageTrace trace(engine.schedule().total_cycles * 2,
                              engine.fc_safe_voltage() + 0.002);
    Rng fault_rng(2);
    const accel::RunResult run = engine.run(random_qimage(16), &trace, fault_rng);
    EXPECT_EQ(run.faults_total.total(), 0u);
}

// ------------------------------------------------------------------- zoo

TEST(Zoo, ArchitectureNamesDistinct) {
    EXPECT_STRNE(nn::architecture_name(nn::Architecture::LeNet5),
                 nn::architecture_name(nn::Architecture::MiniCnn));
    EXPECT_STRNE(nn::architecture_name(nn::Architecture::MiniCnn),
                 nn::architecture_name(nn::Architecture::Mlp));
}

TEST(Zoo, AllArchitecturesProduceTableLogits) {
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        Rng rng(20);
        nn::Sequential model = nn::build_architecture(info.arch, rng);
        EXPECT_EQ(model.output_shape(info.input_shape),
                  Shape({info.num_classes}))
            << info.name;
    }
}

TEST(Zoo, ParseArchitectureRoundTripsAndListsNames) {
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        EXPECT_EQ(nn::parse_architecture(info.name), info.arch);
    }
    try {
        nn::parse_architecture("nope");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        // The error message enumerates every table entry.
        for (const nn::ArchitectureInfo& info : nn::architectures()) {
            EXPECT_NE(std::string(e.what()).find(info.name), std::string::npos)
                << info.name;
        }
    }
    EXPECT_NE(nn::architecture_list_string().find("bnn"), std::string::npos);
}

TEST(Zoo, SpecAppliesTableLearningRate) {
    EXPECT_DOUBLE_EQ(nn::zoo_spec(nn::Architecture::LeNet5).train_config.learning_rate,
                     0.05);
    EXPECT_DOUBLE_EQ(
        nn::zoo_spec(nn::Architecture::Bnn).train_config.learning_rate,
        nn::architecture_info(nn::Architecture::Bnn).learning_rate);
}

TEST(Zoo, TrainOrLoadCaches) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ds_zoo_cache_test";
    fs::remove_all(dir);

    nn::ZooTrainSpec spec;
    spec.architecture = nn::Architecture::Mlp;
    spec.train_size = 60;
    spec.test_size = 30;
    spec.train_config.epochs = 1;
    spec.cache_dir = dir.string();

    const nn::TrainedModel first = nn::train_or_load(spec);
    EXPECT_FALSE(first.loaded_from_cache);
    const nn::TrainedModel second = nn::train_or_load(spec);
    EXPECT_TRUE(second.loaded_from_cache);
    EXPECT_DOUBLE_EQ(first.test_accuracy, second.test_accuracy);
    fs::remove_all(dir);
}

} // namespace
} // namespace deepstrike::quant
