#include "sim/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "sim/campaign.hpp"
#include "sim/journal.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kJournalSweepName = "campaign";

} // namespace

struct Coordinator::Impl {
    struct Conn {
        std::uint64_t id = 0;
        net::Socket socket;
        net::FrameDecoder decoder;
        enum class Role { Pending, Worker, Client } role = Role::Pending;
        Clock::time_point last_rx;
        /// Campaign this worker holds a fingerprint-verified plan for.
        std::uint64_t planned_campaign = 0;
        std::optional<std::size_t> assigned;
        /// Campaign this client tails (0 = none yet).
        std::uint64_t tailing = 0;
    };

    struct CampaignState {
        std::uint64_t id = 0;
        Json manifest;
        CampaignConfig config;
        std::optional<CampaignPlanInfo> info;
        std::vector<Json> records;
        std::deque<std::size_t> pending;
        std::size_t completed = 0;
        std::size_t resumed = 0;
        std::unique_ptr<CheckpointJournal> journal;
        bool done = false;
        /// Retained `report` (or terminal `error`) message for late tails.
        Json final_message;
    };

    CoordinatorConfig config;
    net::Listener listener;
    std::vector<std::unique_ptr<Conn>> conns;
    std::deque<CampaignState> campaigns;
    std::uint64_t next_conn_id = 1;
    std::uint64_t next_campaign_id = 1;
    std::atomic<bool> stop_requested{false};
    /// Set once max_campaigns is reached: the listener is closed, workers
    /// are released (EOF), and the loop stays up only to finish streaming
    /// to already-connected clients.
    bool draining = false;
    Stats stats;

    void log(const char* fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    CampaignState* find_campaign(std::uint64_t id);
    CampaignState* active_campaign();
    void send_safe(Conn& conn, const Json& message);
    void drop_conn(std::size_t index, const char* why);
    void handle_message(Conn& conn, const Json& message);
    void handle_hello(Conn& conn, const Json& message);
    void handle_submit(Conn& conn, const Json& message);
    void handle_tail(Conn& conn, const Json& message);
    void handle_plan(Conn& conn, const Json& message);
    void handle_result(Conn& conn, const Json& message);
    void attach_tailer(Conn& conn, CampaignState& campaign);
    void adopt_plan(CampaignState& campaign, CampaignPlanInfo info);
    void fail_campaign(CampaignState& campaign, const std::string& code,
                       const std::string& detail);
    void announce_campaign(Conn& worker, const CampaignState& campaign);
    void dispatch();
    void complete_if_done(CampaignState& campaign);
    void check_worker_liveness();
    void update_gauges();
    Json point_message(const CampaignState& campaign, std::size_t index) const;
    int run();
};

void Coordinator::Impl::log(const char* fmt, ...) const {
    if (!config.verbose) return;
    va_list args;
    va_start(args, fmt);
    std::printf("[serve] ");
    std::vprintf(fmt, args);
    std::printf("\n");
    std::fflush(stdout);
    va_end(args);
}

Coordinator::Impl::CampaignState* Coordinator::Impl::find_campaign(std::uint64_t id) {
    for (CampaignState& c : campaigns) {
        if (c.id == id) return &c;
    }
    return nullptr;
}

Coordinator::Impl::CampaignState* Coordinator::Impl::active_campaign() {
    for (CampaignState& c : campaigns) {
        if (!c.done) return &c;
    }
    return nullptr;
}

void Coordinator::Impl::send_safe(Conn& conn, const Json& message) {
    if (!conn.socket.valid()) return;
    try {
        net::send_message(conn.socket, message);
    } catch (const Error&) {
        // The peer is gone; the next loop pass reaps the connection.
        conn.socket.close();
    }
}

void Coordinator::Impl::drop_conn(std::size_t index, const char* why) {
    Conn& conn = *conns[index];
    if (conn.role == Conn::Role::Worker && conn.assigned.has_value()) {
        CampaignState* campaign = find_campaign(conn.planned_campaign);
        if (campaign != nullptr && !campaign->done &&
            campaign->records[*conn.assigned].is_null()) {
            campaign->pending.push_front(*conn.assigned);
            ++stats.points_reassigned;
            if (metrics::enabled()) {
                metrics::counter("serve.points_reassigned", "points",
                                 "records requeued after losing their worker")
                    .add();
            }
            log("worker#%llu lost (%s); record %zu requeued",
                static_cast<unsigned long long>(conn.id), why, *conn.assigned);
        }
    } else {
        log("connection#%llu closed (%s)",
            static_cast<unsigned long long>(conn.id), why);
    }
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(index));
    update_gauges();
}

void Coordinator::Impl::handle_hello(Conn& conn, const Json& message) {
    const std::int64_t version = message.at("protocol").as_int();
    if (version != net::kProtocolVersion) {
        send_safe(conn, net::make_error(
                            "protocol-mismatch",
                            "coordinator speaks protocol " +
                                std::to_string(net::kProtocolVersion) +
                                ", peer sent " + std::to_string(version)));
        conn.socket.close();
        return;
    }
    const std::string& role = message.at("role").as_string();
    Json welcome = net::make_message("welcome");
    welcome.set("protocol", net::kProtocolVersion);
    if (role == "worker") {
        conn.role = Conn::Role::Worker;
        ++stats.workers_seen;
        send_safe(conn, welcome);
        log("worker#%llu connected", static_cast<unsigned long long>(conn.id));
        if (const CampaignState* campaign = active_campaign()) {
            announce_campaign(conn, *campaign);
        }
    } else if (role == "client") {
        conn.role = Conn::Role::Client;
        send_safe(conn, welcome);
    } else {
        send_safe(conn, net::make_error("protocol-mismatch",
                                        "unknown role '" + role + "'"));
        conn.socket.close();
    }
    update_gauges();
}

void Coordinator::Impl::handle_submit(Conn& conn, const Json& message) {
    if (draining) {
        send_safe(conn, net::make_error(
                            "bad-manifest",
                            "coordinator is draining (max campaigns served) "
                            "and accepts no new submissions"));
        return;
    }
    const Json& manifest = message.at("manifest");
    CampaignState campaign;
    try {
        campaign.config = campaign_config_from_manifest(manifest);
    } catch (const Error& e) {
        send_safe(conn, net::make_error("bad-manifest", e.what()));
        return;
    }
    campaign.id = next_campaign_id++;
    campaign.manifest = manifest;
    ++stats.campaigns_submitted;
    if (metrics::enabled()) {
        metrics::counter("serve.campaigns_submitted", "campaigns",
                         "campaign manifests accepted")
            .add();
    }

    Json accepted = net::make_message("accepted");
    accepted.set("campaign", campaign.id);
    send_safe(conn, accepted);
    log("campaign#%llu submitted by connection#%llu",
        static_cast<unsigned long long>(campaign.id),
        static_cast<unsigned long long>(conn.id));

    campaigns.push_back(std::move(campaign));
    // If this became the active campaign, put the worker pool on it.
    if (CampaignState* active = active_campaign()) {
        if (active->id == campaigns.back().id) {
            for (auto& c : conns) {
                if (c->role == Conn::Role::Worker) announce_campaign(*c, *active);
            }
        }
    }
    update_gauges();
}

void Coordinator::Impl::attach_tailer(Conn& conn, CampaignState& campaign) {
    conn.tailing = campaign.id;
    // Replay what already happened, then stream the rest as it lands.
    if (campaign.info.has_value()) {
        for (std::size_t i = 0; i < campaign.records.size(); ++i) {
            if (!campaign.records[i].is_null()) {
                send_safe(conn, point_message(campaign, i));
            }
        }
    }
    if (campaign.done) send_safe(conn, campaign.final_message);
}

void Coordinator::Impl::handle_tail(Conn& conn, const Json& message) {
    const std::uint64_t id = message.at("campaign").as_uint();
    CampaignState* campaign = find_campaign(id);
    if (campaign == nullptr) {
        send_safe(conn, net::make_error("unknown-campaign",
                                        "no campaign #" + std::to_string(id)));
        return;
    }
    attach_tailer(conn, *campaign);
}

void Coordinator::Impl::adopt_plan(CampaignState& campaign, CampaignPlanInfo info) {
    campaign.records.assign(info.record_count(), Json());
    for (std::size_t i = 0; i < campaign.records.size(); ++i) {
        campaign.pending.push_back(i);
    }
    campaign.info = std::move(info);

    if (!campaign.config.journal_path.empty()) {
        const CampaignPlanInfo& pi = *campaign.info;
        if (campaign.config.resume) {
            campaign.journal = CheckpointJournal::resume(
                campaign.config.journal_path, pi.fingerprint, kJournalSweepName);
            for (const JournalRecord& rec : campaign.journal->recovered()) {
                if (rec.index >= campaign.records.size()) {
                    throw FormatError("journal " + campaign.config.journal_path +
                                      ": record index " +
                                      std::to_string(rec.index) +
                                      " exceeds the planned sweep");
                }
                if (rec.index > 0 &&
                    rec.payload.at("label").as_string() != pi.label(rec.index - 1)) {
                    throw ConfigError("journal " + campaign.config.journal_path +
                                      ": record " + std::to_string(rec.index) +
                                      " does not match the planned sweep");
                }
                campaign.records[rec.index] = rec.payload;
                ++campaign.completed;
                ++campaign.resumed;
            }
            campaign.pending.clear();
            for (std::size_t i = 0; i < campaign.records.size(); ++i) {
                if (campaign.records[i].is_null()) campaign.pending.push_back(i);
            }
        } else {
            campaign.journal = CheckpointJournal::create(
                campaign.config.journal_path, pi.fingerprint, kJournalSweepName);
        }
    }
    log("campaign#%llu planned: %zu records (%zu resumed), fingerprint %s",
        static_cast<unsigned long long>(campaign.id), campaign.records.size(),
        campaign.resumed,
        CheckpointJournal::fingerprint_hex(campaign.info->fingerprint).c_str());
}

void Coordinator::Impl::fail_campaign(CampaignState& campaign,
                                      const std::string& code,
                                      const std::string& detail) {
    campaign.done = true;
    campaign.final_message = net::make_error(code, detail);
    campaign.final_message.set("campaign", campaign.id);
    for (auto& c : conns) {
        if (c->role == Conn::Role::Client && c->tailing == campaign.id) {
            send_safe(*c, campaign.final_message);
        }
    }
    log("campaign#%llu failed: %s", static_cast<unsigned long long>(campaign.id),
        detail.c_str());
    update_gauges();
}

void Coordinator::Impl::announce_campaign(Conn& worker,
                                          const CampaignState& campaign) {
    Json message = net::make_message("campaign");
    message.set("campaign", campaign.id);
    message.set("manifest", campaign.manifest);
    send_safe(worker, message);
}

void Coordinator::Impl::handle_plan(Conn& conn, const Json& message) {
    if (conn.role != Conn::Role::Worker) {
        throw FormatError("plan message from a non-worker connection");
    }
    const std::uint64_t id = message.at("campaign").as_uint();
    CampaignState* campaign = find_campaign(id);
    if (campaign == nullptr || campaign->done) return; // stale
    CampaignPlanInfo info = CampaignPlanInfo::from_json(message.at("info"));

    if (!campaign->info.has_value()) {
        try {
            adopt_plan(*campaign, std::move(info));
        } catch (const Error& e) {
            fail_campaign(*campaign, "internal", e.what());
            return;
        }
    } else if (info.fingerprint != campaign->info->fingerprint) {
        ++stats.workers_rejected;
        send_safe(conn,
                  net::make_error(
                      "fingerprint-mismatch",
                      "worker plan fingerprint " +
                          CheckpointJournal::fingerprint_hex(info.fingerprint) +
                          " does not match campaign fingerprint " +
                          CheckpointJournal::fingerprint_hex(
                              campaign->info->fingerprint) +
                          " — different victim, dataset, or config"));
        conn.socket.close();
        log("worker#%llu rejected: fingerprint mismatch",
            static_cast<unsigned long long>(conn.id));
        return;
    }
    conn.planned_campaign = campaign->id;
    conn.assigned.reset();
    complete_if_done(*campaign); // zero-remaining resume completes instantly
}

Json Coordinator::Impl::point_message(const CampaignState& campaign,
                                      std::size_t index) const {
    Json message = net::make_message("point");
    message.set("campaign", campaign.id);
    message.set("index", index);
    message.set("label", index == 0 ? std::string("clean baseline")
                                    : campaign.info->label(index - 1));
    message.set("payload", campaign.records[index]);
    return message;
}

void Coordinator::Impl::handle_result(Conn& conn, const Json& message) {
    if (conn.role != Conn::Role::Worker) {
        throw FormatError("result message from a non-worker connection");
    }
    const std::uint64_t id = message.at("campaign").as_uint();
    const std::size_t index = message.at("index").as_uint();
    CampaignState* campaign = find_campaign(id);
    if (campaign == nullptr || campaign->done || !campaign->info.has_value()) {
        return; // stale result from a superseded campaign
    }
    if (index >= campaign->records.size()) {
        throw FormatError("result index " + std::to_string(index) +
                          " out of range");
    }
    if (conn.assigned.has_value() && *conn.assigned == index) {
        conn.assigned.reset();
    }
    if (!campaign->records[index].is_null()) return; // duplicate (reassigned race)

    campaign->records[index] = message.at("payload");
    ++campaign->completed;
    if (campaign->journal) {
        campaign->journal->append(index, campaign->records[index]);
    }
    if (metrics::enabled()) {
        metrics::counter("serve.results_received", "records",
                         "result records received from workers")
            .add();
    }
    for (auto& c : conns) {
        if (c->role == Conn::Role::Client && c->tailing == campaign->id) {
            send_safe(*c, point_message(*campaign, index));
        }
    }
    complete_if_done(*campaign);
}

void Coordinator::Impl::handle_message(Conn& conn, const Json& message) {
    conn.last_rx = Clock::now();
    const std::string type = net::message_type(message);
    if (conn.role == Conn::Role::Pending && type != "hello") {
        throw FormatError("first message must be hello, got '" + type + "'");
    }
    // A role is fixed by the first hello. A repeated one would let a worker
    // holding a record turn into a client, which drop_conn never requeues
    // for, and would count the same worker twice; the caller drops the
    // connection instead, requeueing any record it held.
    if (conn.role != Conn::Role::Pending && type == "hello") {
        throw FormatError("duplicate hello on an established connection");
    }
    if (type == "hello") {
        handle_hello(conn, message);
    } else if (type == "submit") {
        handle_submit(conn, message);
    } else if (type == "tail") {
        handle_tail(conn, message);
    } else if (type == "plan") {
        handle_plan(conn, message);
    } else if (type == "result") {
        handle_result(conn, message);
    } else if (type == "heartbeat") {
        // last_rx update above is the whole point.
    } else {
        throw FormatError("unexpected message '" + type + "' at the coordinator");
    }
}

void Coordinator::Impl::dispatch() {
    CampaignState* campaign = active_campaign();
    if (campaign == nullptr || !campaign->info.has_value()) return;
    for (auto& c : conns) {
        if (campaign->pending.empty()) break;
        Conn& worker = *c;
        if (worker.role != Conn::Role::Worker) continue;
        if (worker.planned_campaign != campaign->id) continue;
        if (worker.assigned.has_value()) continue;
        if (!worker.socket.valid()) continue;

        const std::size_t index = campaign->pending.front();
        campaign->pending.pop_front();
        worker.assigned = index;
        Json message = net::make_message("work");
        message.set("campaign", campaign->id);
        message.set("index", index);
        send_safe(worker, message);
        ++stats.points_dispatched;
        if (metrics::enabled()) {
            metrics::counter("serve.points_dispatched", "records",
                             "record assignments sent to workers")
                .add();
        }
    }
    update_gauges();
}

void Coordinator::Impl::complete_if_done(CampaignState& campaign) {
    if (campaign.done || !campaign.info.has_value()) return;
    if (campaign.completed < campaign.records.size()) return;

    if (campaign.journal) {
        campaign.journal->flush();
        campaign.journal.reset();
    }
    const CampaignReport report =
        assemble_campaign_report(*campaign.info, campaign.records);
    Json message = net::make_message("report");
    message.set("campaign", campaign.id);
    message.set("report", report.to_json());
    message.set("markdown", report.to_markdown());
    campaign.final_message = std::move(message);
    campaign.done = true;
    ++stats.campaigns_completed;
    if (metrics::enabled()) {
        metrics::counter("serve.campaigns_completed", "campaigns",
                         "campaigns fully assembled and reported")
            .add();
    }
    trace::instant("campaign-complete", "serve");
    log("campaign#%llu complete (%zu records, %zu resumed)",
        static_cast<unsigned long long>(campaign.id), campaign.records.size(),
        campaign.resumed);

    for (auto& c : conns) {
        if (c->role == Conn::Role::Client && c->tailing == campaign.id) {
            send_safe(*c, campaign.final_message);
        }
    }
    // Move the worker pool onto the next queued campaign, if any.
    if (CampaignState* next = active_campaign()) {
        for (auto& c : conns) {
            if (c->role == Conn::Role::Worker) announce_campaign(*c, *next);
        }
    }
    update_gauges();
}

void Coordinator::Impl::check_worker_liveness() {
    const auto now = Clock::now();
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(config.heartbeat_timeout_seconds));
    for (std::size_t i = conns.size(); i-- > 0;) {
        Conn& conn = *conns[i];
        if (conn.role != Conn::Role::Worker) continue;
        if (now - conn.last_rx > timeout) drop_conn(i, "heartbeat timeout");
    }
}

void Coordinator::Impl::update_gauges() {
    if (!metrics::enabled()) return;
    std::size_t workers = 0;
    for (const auto& c : conns) {
        if (c->role == Conn::Role::Worker) ++workers;
    }
    std::size_t queued = 0;
    for (const CampaignState& c : campaigns) queued += c.done ? 0 : 1;
    metrics::gauge("serve.workers_alive", "workers",
                   "connected, non-rejected workers")
        .set(static_cast<std::int64_t>(workers));
    metrics::gauge("serve.queue_depth", "campaigns",
                   "submitted campaigns not yet completed")
        .set(static_cast<std::int64_t>(queued));
}

int Coordinator::Impl::run() {
    log("listening on %s:%u", config.host.c_str(),
        static_cast<unsigned>(listener.port()));
    while (!stop_requested.load(std::memory_order_relaxed)) {
        if (!draining && config.max_campaigns > 0 &&
            stats.campaigns_completed >= config.max_campaigns) {
            // All campaigns served. Stop listening and release the worker
            // pool — EOF is each worker's signal to exit cleanly — but keep
            // serving connected clients until every one has been streamed
            // its report and hung up. Exiting the instant the last result
            // lands would strand a client whose tail request is still in
            // the socket buffer, and leave workers blocked on a recv that
            // no process exit will ever interrupt (the in-process tests
            // run coordinator and workers under one roof).
            draining = true;
            listener.close();
            for (auto& c : conns) {
                if (c->role != Conn::Role::Client) c->socket.close();
            }
            log("served %zu campaign(s); draining clients",
                stats.campaigns_completed);
        }
        if (draining) {
            bool clients_left = false;
            for (const auto& c : conns) {
                if (c->role == Conn::Role::Client && c->socket.valid()) {
                    clients_left = true;
                    break;
                }
            }
            if (!clients_left) {
                log("drained; exiting");
                break;
            }
        }

        std::vector<struct pollfd> fds;
        fds.reserve(conns.size() + 1);
        fds.push_back({listener.valid() ? listener.fd() : -1, POLLIN, 0});
        for (const auto& c : conns) {
            fds.push_back({c->socket.valid() ? c->socket.fd() : -1, POLLIN, 0});
        }
        const int rc = ::poll(fds.data(), fds.size(), 200);
        if (rc < 0 && errno != EINTR) {
            throw IoError("coordinator poll failed");
        }

        if (listener.valid() && (fds[0].revents & POLLIN)) {
            auto conn = std::make_unique<Conn>();
            conn->id = next_conn_id++;
            conn->socket = listener.accept();
            conn->last_rx = Clock::now();
            conns.push_back(std::move(conn));
        }

        // Service existing connections back to front so drops don't
        // disturb unprocessed indices.
        for (std::size_t i = conns.size(); i-- > 0;) {
            Conn& conn = *conns[i];
            if (!conn.socket.valid()) {
                drop_conn(i, "closed");
                continue;
            }
            // fds[i + 1] only covers conns present when poll ran.
            if (i + 1 >= fds.size() ||
                !(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) {
                continue;
            }
            try {
                char chunk[65536];
                const std::size_t n = conn.socket.recv_some(chunk, sizeof(chunk));
                if (n == 0) {
                    drop_conn(i, "eof");
                    continue;
                }
                conn.decoder.feed(chunk, n);
                while (std::optional<Json> message = conn.decoder.next()) {
                    handle_message(conn, *message);
                }
            } catch (const Error& e) {
                send_safe(conn, net::make_error("protocol-mismatch", e.what()));
                drop_conn(i, e.what());
            }
        }

        check_worker_liveness();
        dispatch();
    }
    // Whatever ended the loop — stop() or a finished drain — release every
    // peer now rather than when the object is destroyed: a client blocked
    // in tail() or a worker waiting for its next frame only wakes on EOF.
    listener.close();
    for (auto& c : conns) c->socket.close();
    return 0;
}

Coordinator::Coordinator(const CoordinatorConfig& config) : impl_(new Impl) {
    impl_->config = config;
    impl_->listener = net::Listener::bind_tcp(config.host, config.port);
}

Coordinator::~Coordinator() { delete impl_; }

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

int Coordinator::run() { return impl_->run(); }

void Coordinator::stop() {
    impl_->stop_requested.store(true, std::memory_order_relaxed);
}

const Coordinator::Stats& Coordinator::stats() const { return impl_->stats; }

} // namespace deepstrike::sim
