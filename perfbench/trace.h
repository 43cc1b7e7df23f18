/**
 * @file
 * In-memory spans for the traced run. A span is recorded around each
 * call the benchmark makes into one layer of the program (decode,
 * instrument, execute, ...); spans nest, so a layer's self time is its
 * span minus the spans recorded inside it. A Tracer belongs to one
 * thread; a null Tracer records nothing, which is how the timed runs
 * stay untraced.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process, every thread's, live or ended. */
inline int64_t
processCpuNs()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

struct Span {
    std::string name;
    int64_t start = 0; ///< steady-clock ns
    int64_t end = 0;
    int32_t parent = -1;   ///< index into the same Tracer, -1 = root
    int64_t request = -1;  ///< serve request index, -1 = none
    int64_t childNs = 0;   ///< time covered by direct children
    int64_t
    selfNs() const
    {
        return end - start - childNs;
    }
};

class Tracer {
  public:
    std::vector<Span> spans;

    /** Records one span for its lifetime (no-op on a null tracer). */
    class Scope {
      public:
        Scope(Tracer *t, const char *name, int64_t request = -1)
            : t_(t)
        {
            if (!t_)
                return;
            idx_ = static_cast<int32_t>(t_->spans.size());
            t_->spans.push_back(
                Span{name, 0, 0, t_->open_, request, 0});
            t_->open_ = idx_;
            t_->spans[idx_].start = nowNs();
        }
        ~Scope()
        {
            if (!t_)
                return;
            Span &s = t_->spans[idx_];
            s.end = nowNs();
            t_->open_ = s.parent;
            if (s.parent >= 0)
                t_->spans[s.parent].childNs += s.end - s.start;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int32_t idx_ = -1;
    };

    /** Total self time per span name, in ns. */
    std::map<std::string, int64_t>
    selfTotals() const
    {
        std::map<std::string, int64_t> out;
        for (const Span &s : spans)
            out[s.name] += s.selfNs();
        return out;
    }

  private:
    int32_t open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
