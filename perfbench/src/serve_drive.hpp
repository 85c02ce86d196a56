#ifndef PERFBENCH_SERVE_DRIVE_HPP
#define PERFBENCH_SERVE_DRIVE_HPP

/**
 * @file
 * Closed-loop driving of a `rawcc serve` daemon through its socket
 * protocol (serve::ServeDaemon / serve::ServeClient): one blocking
 * connection per client thread, one request in flight per
 * connection, every reply parsed into the fields the checks need.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/client.hpp"

namespace perfbench {

/** One request: its wire line and what it stands for. */
struct Request
{
    std::string id;
    std::string line;
    /** Index of the key or edit site the request exercises. */
    int key = -1;
    /** The connection's round the request belongs to. */
    int round = 0;
    bool compile = false;
    /** Inline source of a compile request (for the in-process replay). */
    std::string source;
};

/** One reply as the client saw it. */
struct Reply
{
    Request req;
    int conn = 0;
    bool ok = false;
    std::string error;
    double latency_ms = 0;
    double queue_ms = 0;
    /** Server-side run time: compile run_ms, or compile_ms + sim_ms. */
    double run_ms = 0;
    double sim_ms = 0;
    int64_t cycles = -1, instrs = -1, words_routed = -1, dyn_messages = -1;
    int64_t static_instrs = -1, ir_instrs = -1, est_makespan = -1;
};

/**
 * Supplies the requests of round @p round on connection @p conn;
 * returns false when the connection should stop.  Called from the
 * connection's own thread.
 */
using RoundSource =
    std::function<bool(int conn, int round, std::vector<Request> &out)>;

/** A forked daemon plus the connections that drive it. */
class DaemonSession
{
  public:
    /**
     * Start `rawcc serve` with @p workers workers on an ephemeral
     * port, restricted to @p cpus when that is not empty.
     */
    void start(const std::string &rawcc_bin, int workers,
               const std::vector<int> &cpus = {});
    /** Time from fork to the readiness line (ms). */
    double ready_ms() const { return ready_ms_; }

    /**
     * Drive @p conns connections concurrently until each one's round
     * source says stop.  Client-observed spans go to one trace track
     * per connection.  Returns every reply, in completion order per
     * connection.  A transport failure becomes a failed reply.
     * @p sent counts the requests handed to a connection, apart from
     * the replies, so that a lost reply shows.
     */
    std::vector<Reply> drive(int conns, const RoundSource &rounds,
                             Tracer &tr, int64_t &sent);
    /** One request on a fresh connection (warm-up, stats). */
    Reply one(const Request &req);
    /** The `stats` op's flight-cache hits and misses. */
    void flight_stats(int64_t &hits, int64_t &misses);
    double peak_rss_mb() const;
    /** SIGTERM and wait; returns the daemon's exit code. */
    int stop();

  private:
    raw::serve::ServeDaemon daemon_;
    double ready_ms_ = 0;
    bool running_ = false;
};

/** `{"op":"simulate","bench":...,"tiles":...}` */
Request simulate_request(const std::string &id, const std::string &bench,
                         int tiles, int key);
/** `{"op":"compile","source":...,"tiles":...}` */
Request compile_request(const std::string &id, const std::string &source,
                        int tiles, int key);

/**
 * Account for a driven window: every request sent is attempted, every
 * reply that is not ok is failed, and ok + failed must equal @p sent.
 */
void tally_replies(const std::vector<Reply> &replies, int64_t sent,
                   Outcome &o);

/**
 * Compare an ok reply with the in-process compile and simulation of
 * the same source: static_instrs, ir_instrs and est_makespan for a
 * compile, cycles, instrs, words_routed and dyn_messages for a
 * simulate.  Returns an empty string when they agree.
 */
std::string check_reply(const Reply &r, const Facts &truth);

/**
 * The serve.* layer metrics of a window: client-observed medians per
 * op, the replies' queue and run medians, the flight cache's counters
 * from the stats op, and the client time not spent running.
 */
void emit_serve_metrics(const std::vector<Reply> &replies,
                        int64_t flight_hits, int64_t flight_misses,
                        Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_SERVE_DRIVE_HPP
