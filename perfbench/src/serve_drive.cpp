#include "serve_drive.hpp"

#include <atomic>
#include <sstream>
#include <thread>

#include "serve/json.hpp"

namespace perfbench {

namespace {

using raw::serve::Json;

int64_t
int_field(const Json &j, const char *key)
{
    return j.int_or(key, -1);
}

double
num_field(const Json &j, const char *key)
{
    const Json *v = j.find(key);
    if (!v || !v->is_number())
        return 0;
    return v->is_int ? static_cast<double>(v->integer) : v->number;
}

Reply
parse_reply(const Request &req, const Json &j)
{
    Reply r;
    r.req = req;
    r.ok = j.bool_or("ok", false);
    r.error = j.str_or("error", "");
    r.queue_ms = num_field(j, "queue_ms");
    if (req.compile) {
        r.run_ms = num_field(j, "run_ms");
        r.static_instrs = int_field(j, "static_instrs");
        r.ir_instrs = int_field(j, "ir_instrs");
        r.est_makespan = int_field(j, "est_makespan");
    } else {
        r.sim_ms = num_field(j, "sim_ms");
        r.run_ms = num_field(j, "compile_ms") + r.sim_ms;
        r.cycles = int_field(j, "cycles");
        r.instrs = int_field(j, "instrs");
        r.words_routed = int_field(j, "words_routed");
        r.dyn_messages = int_field(j, "dyn_messages");
    }
    return r;
}

constexpr int64_t kReplyTimeoutMs = 120000;

} // namespace

Request
simulate_request(const std::string &id, const std::string &bench, int tiles,
                 int key)
{
    raw::serve::JsonBuilder b;
    b.kv("op", "simulate").kv("id", id).kv("bench", bench).kv("tiles",
                                                              tiles);
    Request r;
    r.id = id;
    r.line = b.str();
    r.key = key;
    return r;
}

Request
compile_request(const std::string &id, const std::string &source, int tiles,
                int key)
{
    raw::serve::JsonBuilder b;
    b.kv("op", "compile").kv("id", id).kv("source", source).kv("tiles",
                                                               tiles);
    Request r;
    r.id = id;
    r.line = b.str();
    r.key = key;
    r.compile = true;
    r.source = source;
    return r;
}

void
DaemonSession::start(const std::string &rawcc_bin, int workers,
                     const std::vector<int> &cpus)
{
    // The daemon inherits the affinity of the thread that forks it.
    const std::vector<int> own = allowed_cpus();
    pin_thread(cpus);
    Clock::time_point t0 = Clock::now();
    daemon_.start(rawcc_bin,
                  {"--port", "0", "--workers", std::to_string(workers)});
    ready_ms_ = ms_between(t0, Clock::now());
    if (!cpus.empty())
        pin_thread(own);
    running_ = true;
}

std::vector<Reply>
DaemonSession::drive(int conns, const RoundSource &rounds, Tracer &tr,
                     int64_t &sent)
{
    std::vector<std::vector<Reply>> per(conns);
    std::atomic<int64_t> n_sent{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; c++)
        threads.emplace_back([&, c] {
            raw::serve::ServeClient client;
            bool up = false;
            std::string conn_err;
            try {
                client.connect(daemon_.endpoint());
                up = true;
            } catch (const std::exception &e) {
                conn_err = e.what();
            }
            std::vector<Request> reqs;
            for (int round = 0;; round++) {
                reqs.clear();
                if (!rounds(c, round, reqs))
                    break;
                for (const Request &q : reqs) {
                    n_sent++;
                    Reply r;
                    Clock::time_point t0 = Clock::now();
                    try {
                        if (!up)
                            throw std::runtime_error(conn_err);
                        Json j = client.request(q.line, kReplyTimeoutMs);
                        r = parse_reply(q, j);
                    } catch (const std::exception &e) {
                        r.req = q;
                        r.ok = false;
                        r.error = e.what();
                    }
                    Clock::time_point t1 = Clock::now();
                    r.conn = c;
                    r.latency_ms = ms_between(t0, t1);
                    tr.span("serve.conn" + std::to_string(c),
                            q.compile ? "compile" : "simulate", q.id, t0, t1);
                    per[c].push_back(std::move(r));
                }
            }
        });
    for (std::thread &t : threads)
        t.join();
    sent = n_sent;
    std::vector<Reply> all;
    for (auto &v : per)
        for (Reply &r : v)
            all.push_back(std::move(r));
    return all;
}

Reply
DaemonSession::one(const Request &req)
{
    raw::serve::ServeClient client;
    Clock::time_point t0 = Clock::now();
    Reply r;
    try {
        client.connect(daemon_.endpoint());
        r = parse_reply(req, client.request(req.line, kReplyTimeoutMs));
    } catch (const std::exception &e) {
        r.req = req;
        r.ok = false;
        r.error = e.what();
    }
    r.latency_ms = ms_between(t0, Clock::now());
    return r;
}

void
DaemonSession::flight_stats(int64_t &hits, int64_t &misses)
{
    raw::serve::ServeClient client;
    client.connect(daemon_.endpoint());
    Json j = client.request("{\"op\":\"stats\"}", kReplyTimeoutMs);
    const Json *cache = j.find("cache");
    hits = cache ? cache->int_or("hits", -1) : -1;
    misses = cache ? cache->int_or("misses", -1) : -1;
}

double
DaemonSession::peak_rss_mb() const
{
    return pid_peak_rss_mb(daemon_.pid());
}

int
DaemonSession::stop()
{
    if (!running_)
        return 0;
    running_ = false;
    return daemon_.stop();
}

void
tally_replies(const std::vector<Reply> &replies, int64_t sent, Outcome &o)
{
    o.attempted += sent;
    int64_t ok = 0, failed = 0;
    for (const Reply &r : replies) {
        if (r.ok) {
            ok++;
        } else {
            failed++;
            o.failure(r.req.id + ": " + r.error);
        }
    }
    if (ok + failed != sent)
        o.mismatch(std::to_string(ok) + " ok + " + std::to_string(failed) +
                   " failed replies for " + std::to_string(sent) +
                   " requests sent");
}

std::string
check_reply(const Reply &r, const Facts &t)
{
    std::ostringstream os;
    if (r.req.compile) {
        if (r.static_instrs != t.static_instrs ||
            r.ir_instrs != t.ir_instrs || r.est_makespan != t.est_makespan)
            os << r.req.id << ": compile reply static_instrs "
               << r.static_instrs << " ir_instrs " << r.ir_instrs
               << " est_makespan " << r.est_makespan << ", in-process "
               << t.static_instrs << " / " << t.ir_instrs << " / "
               << t.est_makespan;
    } else if (r.cycles != t.cycles || r.instrs != t.instrs ||
               r.words_routed != t.words || r.dyn_messages != t.dyn_msgs) {
        os << r.req.id << ": simulate reply cycles " << r.cycles
           << " instrs " << r.instrs << " words " << r.words_routed
           << ", in-process " << t.cycles << " / " << t.instrs << " / "
           << t.words;
    }
    return os.str();
}

void
emit_serve_metrics(const std::vector<Reply> &replies, int64_t flight_hits,
                   int64_t flight_misses, Outcome &o)
{
    std::vector<double> sim_lat, compile_lat, queue, run;
    double self_ms = 0;
    for (const Reply &r : replies) {
        if (!r.ok)
            continue;
        (r.req.compile ? compile_lat : sim_lat).push_back(r.latency_ms);
        queue.push_back(r.queue_ms);
        run.push_back(r.run_ms);
        self_ms += r.latency_ms - r.run_ms;
    }
    o.set("serve.simulate_ms", median(sim_lat), "ms");
    o.set("serve.compile_ms", median(compile_lat), "ms");
    o.set("serve.queue_ms", median(queue), "ms");
    o.set("serve.run_ms", median(run), "ms");
    o.set_count("serve.flight_hits", flight_hits);
    o.set_count("serve.flight_misses", flight_misses);
    o.set("serve.self_ms", self_ms, "ms");
}

} // namespace perfbench
