// End-to-end tests of the distributed campaign service: coordinator,
// workers and client run in one process (threads instead of processes;
// the byte-for-byte wire protocol is identical), with the test victim
// factory standing in for the CLI's trained zoo victims.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>


#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "sim/campaign.hpp"
#include "sim/coordinator.hpp"
#include "sim/dist_client.hpp"
#include "sim/worker.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::sim {
namespace {

Json small_manifest() {
    Json manifest = Json::object();
    Json grid = Json::array();
    grid.push(300);
    grid.push(900);
    manifest.set("strike_grid", std::move(grid));
    manifest.set("eval_images", 25);
    manifest.set("blind_offsets", 3);
    return manifest;
}

/// Worker victim derived only from the seed; the manifest's victim keys
/// are ignored so no training happens in unit tests.
VictimFactory factory_for(std::uint64_t seed) {
    return [seed](const Json&) {
        return WorkerVictim{
            Platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(seed)),
            data::make_datasets(9, 1, 30).test};
    };
}

WorkerConfig worker_config(std::uint16_t port, std::size_t max_points = 0) {
    WorkerConfig cfg;
    cfg.port = port;
    cfg.max_points = max_points;
    cfg.heartbeat_interval_seconds = 0.2;
    cfg.verbose = false;
    return cfg;
}

/// Coordinator on its own thread; joins (after stop()) on destruction.
struct CoordinatorHarness {
    explicit CoordinatorHarness(std::size_t max_campaigns) {
        CoordinatorConfig cfg;
        cfg.port = 0;
        cfg.max_campaigns = max_campaigns;
        cfg.verbose = false;
        coordinator = std::make_unique<Coordinator>(cfg);
        thread = std::thread([this] { rc = coordinator->run(); });
    }

    ~CoordinatorHarness() {
        if (coordinator) coordinator->stop();
        join();
    }

    std::uint16_t port() const { return coordinator->port(); }

    void join() {
        if (thread.joinable()) thread.join();
    }

    std::unique_ptr<Coordinator> coordinator;
    std::thread thread;
    int rc = -1;
};

/// The single-process reference: same victim seed, same manifest.
CampaignReport reference_report(std::uint64_t seed, const Json& manifest) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(seed));
    auto ds = data::make_datasets(9, 1, 30);
    return run_campaign(platform, ds.test, campaign_config_from_manifest(manifest));
}

TEST(Distributed, TwoWorkersMatchSingleProcessByteForByte) {
    CoordinatorHarness harness(1);
    ServiceClient client("127.0.0.1", harness.port());
    const std::uint64_t id = client.submit(small_manifest());
    EXPECT_EQ(id, 1u);

    std::vector<std::thread> workers;
    std::vector<int> rcs(2, -1);
    for (std::size_t i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            rcs[i] = run_worker(worker_config(harness.port()), factory_for(61));
        });
    }

    const CampaignOutcome outcome = client.tail(id);
    for (std::thread& w : workers) w.join();
    harness.join();

    ASSERT_FALSE(outcome.failed);
    EXPECT_EQ(rcs[0], 0);
    EXPECT_EQ(rcs[1], 0);

    const CampaignReport expected = reference_report(61, small_manifest());
    EXPECT_EQ(outcome.report.dump(2), expected.to_json().dump(2));
    EXPECT_EQ(outcome.markdown, expected.to_markdown());
    // One streamed point per record: the clean baseline + every point.
    EXPECT_EQ(outcome.points_streamed, expected.points.size() + 1);

    const Coordinator::Stats& stats = harness.coordinator->stats();
    EXPECT_EQ(stats.campaigns_completed, 1u);
    EXPECT_EQ(stats.workers_seen, 2u);
    EXPECT_EQ(stats.workers_rejected, 0u);
    EXPECT_EQ(stats.points_dispatched, outcome.points_streamed);
}

TEST(Distributed, MismatchedVictimWorkerIsRefused) {
    CoordinatorHarness harness(1);
    ServiceClient client("127.0.0.1", harness.port());
    const std::uint64_t id = client.submit(small_manifest());

    // Worker A (seed 61) establishes the canonical plan and serves the
    // whole campaign; worker B (seed 62) derives a different fingerprint
    // and must be turned away without ever receiving work.
    int rc_a = -1;
    std::thread worker_a([&] {
        rc_a = run_worker(worker_config(harness.port()), factory_for(61));
    });

    int rc_b = -1;
    std::thread worker_b;
    const CampaignOutcome outcome = client.tail(id, [&](const Json&) {
        // First completed record proves A's plan is canonical; only now
        // can B's handshake deterministically hit the mismatch path.
        if (worker_b.joinable()) return;
        worker_b = std::thread([&] {
            rc_b = run_worker(worker_config(harness.port()), factory_for(62));
        });
    });
    worker_a.join();
    worker_b.join();
    harness.join();

    ASSERT_FALSE(outcome.failed);
    EXPECT_EQ(rc_a, 0);
    EXPECT_EQ(rc_b, 1);
    EXPECT_EQ(harness.coordinator->stats().workers_rejected, 1u);

    const CampaignReport expected = reference_report(61, small_manifest());
    EXPECT_EQ(outcome.report.dump(2), expected.to_json().dump(2));
}

TEST(Distributed, LostWorkerRecordIsReassigned) {
    CoordinatorHarness harness(1);
    ServiceClient client("127.0.0.1", harness.port());
    const std::uint64_t id = client.submit(small_manifest());

    // Worker A evaluates two records, then drops its connection without
    // replying to the third assignment — the deterministic stand-in for
    // a SIGKILLed worker. The in-flight record must be reassigned.
    int rc_a = -1;
    std::thread worker_a([&] {
        rc_a = run_worker(worker_config(harness.port(), /*max_points=*/2),
                          factory_for(61));
    });
    worker_a.join();
    EXPECT_EQ(rc_a, 0);

    int rc_b = -1;
    std::thread worker_b([&] {
        rc_b = run_worker(worker_config(harness.port()), factory_for(61));
    });

    const CampaignOutcome outcome = client.tail(id);
    worker_b.join();
    harness.join();

    ASSERT_FALSE(outcome.failed);
    EXPECT_EQ(rc_b, 0);

    const Coordinator::Stats& stats = harness.coordinator->stats();
    EXPECT_EQ(stats.points_reassigned, 1u);
    EXPECT_EQ(stats.workers_seen, 2u);

    // The report is still byte-identical to the uninterrupted run.
    const CampaignReport expected = reference_report(61, small_manifest());
    EXPECT_EQ(outcome.report.dump(2), expected.to_json().dump(2));
    EXPECT_EQ(outcome.markdown, expected.to_markdown());
}

/// Next frame from the coordinator, expected to be of `type`. The
/// coordinator only speaks when spoken to or when it assigns work, so a
/// lone raw peer sees frames in protocol order.
Json expect_frame(net::Socket& socket, net::FrameDecoder& decoder,
                  const std::string& type) {
    std::optional<Json> message = net::recv_message(socket, decoder);
    if (!message.has_value()) throw IoError("coordinator closed the connection");
    EXPECT_EQ(net::message_type(*message), type);
    return *message;
}

TEST(Distributed, DuplicateHelloFromWorkerRequeuesItsRecord) {
    CoordinatorHarness harness(1);
    ServiceClient client("127.0.0.1", harness.port());
    const std::uint64_t id = client.submit(small_manifest());

    // A raw-socket worker takes a record, then re-sends hello as a client
    // and hangs up. The coordinator must refuse the second hello and
    // requeue the record, or the campaign never completes.
    {
        net::Socket socket = net::Socket::connect_tcp("127.0.0.1", harness.port());
        net::FrameDecoder decoder;
        Json hello = net::make_message("hello");
        hello.set("protocol", net::kProtocolVersion);
        hello.set("role", "worker");
        net::send_message(socket, hello);
        expect_frame(socket, decoder, "welcome");
        const Json announce = expect_frame(socket, decoder, "campaign");
        ASSERT_EQ(announce.at("campaign").as_uint(), id);

        Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
        const data::Dataset test = data::make_datasets(9, 1, 30).test;
        const CampaignPlan plan = plan_campaign(
            platform, test, campaign_config_from_manifest(announce.at("manifest")));
        Json plan_message = net::make_message("plan");
        plan_message.set("campaign", id);
        plan_message.set("info", plan_info(plan).to_json());
        net::send_message(socket, plan_message);
        expect_frame(socket, decoder, "work");

        Json again = net::make_message("hello");
        again.set("protocol", net::kProtocolVersion);
        again.set("role", "client");
        net::send_message(socket, again);
        socket.close();
    }

    int rc = -1;
    std::thread worker([&] {
        rc = run_worker(worker_config(harness.port()), factory_for(61));
    });
    std::future<CampaignOutcome> tail =
        std::async(std::launch::async, [&] { return client.tail(id); });
    if (tail.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
        // The held record was never requeued. Stopping and destroying the
        // coordinator closes every connection, which unblocks the client
        // and the worker before the test reports the hang.
        harness.coordinator->stop();
        harness.join();
        harness.coordinator.reset();
        worker.join();
        tail.wait();
        FAIL() << "campaign never completed after a duplicate hello";
    }
    const CampaignOutcome outcome = tail.get();
    worker.join();
    harness.join();

    ASSERT_FALSE(outcome.failed);
    EXPECT_EQ(rc, 0);
    const Coordinator::Stats& stats = harness.coordinator->stats();
    EXPECT_EQ(stats.points_reassigned, 1u);
    EXPECT_EQ(stats.workers_seen, 2u);

    const CampaignReport expected = reference_report(61, small_manifest());
    EXPECT_EQ(outcome.report.dump(2), expected.to_json().dump(2));
    EXPECT_EQ(outcome.markdown, expected.to_markdown());
}

TEST(Distributed, StopReleasesTailingClientsAndIdleWorkers) {
    CoordinatorHarness harness(0);
    ServiceClient client("127.0.0.1", harness.port());
    const std::uint64_t id = client.submit(small_manifest());

    // A worker that took the announcement and now waits for its next
    // frame, and a client tailing the (never finishing) campaign.
    net::Socket worker = net::Socket::connect_tcp("127.0.0.1", harness.port());
    net::FrameDecoder decoder;
    Json hello = net::make_message("hello");
    hello.set("protocol", net::kProtocolVersion);
    hello.set("role", "worker");
    net::send_message(worker, hello);
    expect_frame(worker, decoder, "welcome");
    expect_frame(worker, decoder, "campaign");
    std::future<CampaignOutcome> tail =
        std::async(std::launch::async, [&] { return client.tail(id); });
    std::future<std::optional<Json>> next_frame = std::async(
        std::launch::async, [&] { return net::recv_message(worker, decoder); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // stop() while the coordinator object stays alive: run() must hang up
    // on both peers before it returns.
    harness.coordinator->stop();
    harness.join();
    const bool released =
        tail.wait_for(std::chrono::seconds(5)) == std::future_status::ready &&
        next_frame.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    if (!released) {
        harness.coordinator.reset(); // closes the connections, unblocking both
        tail.wait();
        next_frame.wait();
        FAIL() << "stop() left a tailing client or an idle worker blocked";
    }
    EXPECT_THROW(tail.get(), IoError);
    EXPECT_FALSE(next_frame.get().has_value());
    EXPECT_EQ(harness.rc, 0);
}

TEST(Distributed, BadManifestAndUnknownCampaignAreRejected) {
    CoordinatorHarness harness(0);
    ServiceClient client("127.0.0.1", harness.port());

    Json bad = small_manifest();
    bad.set("bogus_knob", 1);
    EXPECT_THROW(client.submit(bad), ConfigError);

    EXPECT_THROW(client.tail(99), ConfigError);
}

} // namespace
} // namespace deepstrike::sim
