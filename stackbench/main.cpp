// main.cpp — one stackbench workload in one process.
//
//   stackbench --workload=<kv-atomically|alias-executor|svc-open>
//              --seed=<n> --seconds=<s> [--trace=<0|1>] [--trace-out=FILE]
//
// Prints human-readable lines, then as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "checks": [...],
//    "metrics": {"<name>": {"value": x, "unit": "u", "samples": n}, ...}}
// and exits 1 when an output check failed, 2 on a usage error. run.py
// builds this binary and turns its output into the benchmark's result.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "config/config.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using stackbench::Report;

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_report(const Report& rep) {
    std::string out = "{\"correct\": ";
    out += rep.checks.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(rep.attempted);
    out += ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"checks\": [";
    for (std::size_t i = 0; i < rep.checks.size(); ++i) {
        out += (i ? ", " : "") + json_string(rep.checks[i]);
    }
    out += "], \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto& m = rep.metrics[i];
        out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
               json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
    const auto cfg = tmb::config::Config::from_args(argc, argv);
    stackbench::Options opt;
    const std::string workload = cfg.get("workload", "");
    opt.seed = cfg.get_u64("seed", opt.seed);
    opt.seconds = cfg.get_double("seconds", opt.seconds);
    opt.trace = cfg.get_bool("trace", false);
    const std::string trace_out = cfg.get("trace-out", "");
    if (const auto unused = cfg.unused_keys(); !unused.empty()) {
        std::fprintf(stderr, "stackbench: unknown flag --%s\n",
                     unused.front().c_str());
        return 2;
    }
    if (!(opt.seconds > 0.0)) {
        std::fprintf(stderr, "stackbench: --seconds must be > 0\n");
        return 2;
    }
    if (opt.trace) stackbench::Tracer::instance().enable(std::size_t{6} << 20);

    Report rep;
    if (workload == "kv-atomically") {
        rep = stackbench::run_kv(opt);
    } else if (workload == "alias-executor") {
        rep = stackbench::run_alias(opt);
    } else if (workload == "svc-open") {
        rep = stackbench::run_svc(opt);
    } else {
        std::fprintf(stderr,
                     "stackbench: --workload must be kv-atomically, "
                     "alias-executor or svc-open (got '%s')\n",
                     workload.c_str());
        return 2;
    }
    if (opt.trace) {
        stackbench::probe_acquire_release(opt.seed, rep);
        stackbench::add_self_shares(rep);
        auto& tracer = stackbench::Tracer::instance();
        rep.add("trace.spans", static_cast<double>(tracer.span_count()),
                "count", 1);
        rep.add("trace.dropped_spans", static_cast<double>(tracer.dropped()),
                "count", 1);
        if (!trace_out.empty() && !tracer.write(trace_out)) {
            std::fprintf(stderr, "stackbench: cannot write %s\n",
                         trace_out.c_str());
        }
    }
    for (const std::string& c : rep.checks) {
        std::printf("OUTPUT CHECK FAILED: %s\n", c.c_str());
    }
    print_report(rep);
    return rep.checks.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "stackbench: %s\n", e.what());
        return 2;
    }
}
