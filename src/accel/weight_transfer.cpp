#include "accel/weight_transfer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace deepstrike::accel {

namespace {

using quant::WeightStreamView;

fx::Q3_4 stream_word(const quant::QNetwork& network, const WeightStreamView& view,
                     std::size_t index) {
    const WeightStreamView::WordRef ref = view.locate(index);
    return network.layers[ref.layer].weight[ref.element];
}

} // namespace

const char* weight_fault_kind_name(WeightFaultKind kind) {
    switch (kind) {
    case WeightFaultKind::Duplicate: return "duplicate";
    case WeightFaultKind::BitFlip: return "bit-flip";
    }
    throw ConfigError("weight_fault_kind_name: unknown kind");
}

WeightFaultKind parse_weight_fault_kind(const std::string& name) {
    if (name == "duplicate") return WeightFaultKind::Duplicate;
    if (name == "bit-flip" || name == "bitflip") return WeightFaultKind::BitFlip;
    throw ConfigError("unknown weight fault kind '" + name +
                      "' (expected duplicate|bit-flip)");
}

std::vector<WeightFault> uniform_weight_faults(
    const std::vector<std::uint32_t>& indices, WeightFaultKind kind,
    std::uint8_t bit) {
    std::vector<WeightFault> faults;
    faults.reserve(indices.size());
    for (std::uint32_t index : indices) {
        faults.push_back(WeightFault{index, kind, bit});
    }
    return faults;
}

quant::WeightDeltas weight_fault_deltas(const quant::QNetwork& network,
                                        const std::vector<WeightFault>& faults,
                                        const WeightTransferParams& params) {
    expects(params.beat_words > 0, "WeightTransferParams: beat_words > 0");
    const WeightStreamView view(network);
    for (const WeightFault& fault : faults) {
        expects(fault.index < view.size(),
                "WeightFault: stream index within the weight stream");
        if (fault.kind == WeightFaultKind::BitFlip) {
            expects(fault.bit < fx::Q3_4::total_bits,
                    "WeightFault: bit within the 8-bit word");
        }
    }

    // The touched words as (stream index, new raw word), sorted by index.
    std::vector<std::pair<std::uint32_t, std::int16_t>> words;

    // Pass 1 — Duplicate faults. Each one re-latches the *original* stream's
    // previous beat over the target beat: sources are read from the unfaulted
    // network so the result is independent of fault-vector order (two
    // adjacent duplications do not chain, and a beat hit twice gets the
    // same words twice). Beat 0 has no predecessor; faults there model a
    // glitch that fired before any data was on the bus (no-op).
    for (const WeightFault& fault : faults) {
        if (fault.kind != WeightFaultKind::Duplicate) continue;
        const std::size_t beat = fault.index / params.beat_words;
        if (beat == 0) continue;
        const std::size_t beat_start = beat * params.beat_words;
        const std::size_t beat_end =
            std::min(beat_start + params.beat_words, view.size());
        for (std::size_t i = beat_start; i < beat_end; ++i) {
            words.emplace_back(static_cast<std::uint32_t>(i),
                               stream_word(network, view, i - params.beat_words).raw());
        }
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());

    // Pass 2 — BitFlip faults, applied to the post-duplication word (the
    // flip happens as the word crosses the bus, i.e. on whatever data the
    // handshake actually carried), in fault order. XOR on the 8-bit
    // two's-complement code, sign-extended back to the int16 raw store.
    for (const WeightFault& fault : faults) {
        if (fault.kind != WeightFaultKind::BitFlip) continue;
        auto it = std::lower_bound(
            words.begin(), words.end(), fault.index,
            [](const auto& word, std::uint32_t index) { return word.first < index; });
        if (it == words.end() || it->first != fault.index) {
            it = words.emplace(it, fault.index,
                               stream_word(network, view, fault.index).raw());
        }
        const auto byte = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(it->second) ^ (1u << fault.bit));
        it->second = static_cast<std::int16_t>(static_cast<std::int8_t>(byte));
    }

    quant::WeightDeltas deltas(network.layers.size());
    for (const auto& [index, word] : words) {
        const WeightStreamView::WordRef ref = view.locate(index);
        const std::int16_t old = network.layers[ref.layer].weight[ref.element].raw();
        if (word != old) {
            deltas[ref.layer].push_back(
                {static_cast<std::uint32_t>(ref.element),
                 static_cast<std::int16_t>(word - old)});
        }
    }
    return deltas;
}

quant::QNetwork apply_weight_faults(const quant::QNetwork& network,
                                    const std::vector<WeightFault>& faults,
                                    const WeightTransferParams& params) {
    const quant::WeightDeltas deltas = weight_fault_deltas(network, faults, params);
    quant::QNetwork deployed = network;
    for (std::size_t li = 0; li < deltas.size(); ++li) {
        QTensor& weight = deployed.layers[li].weight;
        for (const quant::WeightDelta& d : deltas[li]) {
            weight[d.element] = fx::Q3_4::from_raw(
                static_cast<std::int16_t>(weight[d.element].raw() + d.delta));
        }
    }
    return deployed;
}

} // namespace deepstrike::accel
