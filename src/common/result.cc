#include "result.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "logging.hh"

namespace vsmooth {

void
Result::metric(std::string_view name, double value)
{
    // Overwriting with a plain double demotes a former count metric.
    for (auto it = counts_.begin(); it != counts_.end(); ++it) {
        if (it->first == name) {
            counts_.erase(it);
            break;
        }
    }
    for (auto &[n, v] : metrics_) {
        if (n == name) {
            v = value;
            return;
        }
    }
    metrics_.emplace_back(std::string(name), value);
}

void
Result::metricCount(std::string_view name, std::uint64_t value)
{
    metric(name, static_cast<double>(value));
    counts_.emplace_back(std::string(name), value);
}

bool
Result::hasCount(std::string_view name) const
{
    for (const auto &[n, v] : counts_) {
        if (n == name)
            return true;
    }
    return false;
}

std::uint64_t
Result::countValue(std::string_view name) const
{
    for (const auto &[n, v] : counts_) {
        if (n == name)
            return v;
    }
    panic("Result: no count metric '%s'", std::string(name).c_str());
}

void
Result::series(std::string_view name, std::vector<double> values)
{
    for (auto &[n, v] : series_) {
        if (n == name) {
            v = std::move(values);
            return;
        }
    }
    series_.emplace_back(std::string(name), std::move(values));
}

void
Result::seriesPoint(std::string_view name, double value)
{
    for (auto &[n, v] : series_) {
        if (n == name) {
            v.push_back(value);
            return;
        }
    }
    series_.emplace_back(std::string(name),
                         std::vector<double>{value});
}

bool
Result::hasMetric(std::string_view name) const
{
    for (const auto &[n, v] : metrics_) {
        if (n == name)
            return true;
    }
    return false;
}

double
Result::metricValue(std::string_view name) const
{
    for (const auto &[n, v] : metrics_) {
        if (n == name)
            return v;
    }
    panic("Result: no metric '%s'", std::string(name).c_str());
}

Json
Result::toJson() const
{
    Json j = Json::object();
    j.set("experiment", experiment_);
    j.set("git", git_);
    // Integer tokens: byte-identical to the old %.0f form for every
    // value that fits a double, exact for full-64-bit seeds/counters.
    j.set("seed", Json(seed_));
    j.set("jobs", Json(jobs_));
    // Omitted when not recorded, which keeps pre-existing goldens
    // (and their round-trip tests) byte-stable.
    if (!simd_.empty())
        j.set("simd", simd_);
    if (hasSampling_) {
        Json sj = Json::object();
        sj.set("mode", sampling_.mode);
        sj.set("simulated_fraction", Json(sampling_.simulatedFraction));
        Json bj = Json::object();
        for (const auto &[n, b] : sampling_.bounds)
            bj.set(n, Json(b));
        sj.set("bounds", std::move(bj));
        j.set("sampling", std::move(sj));
    }
    Json m = Json::object();
    for (const auto &[n, v] : metrics_) {
        if (hasCount(n))
            m.set(n, Json(countValue(n)));
        else
            m.set(n, Json(v));
    }
    j.set("metrics", std::move(m));
    Json s = Json::object();
    for (const auto &[n, vs] : series_) {
        Json arr = Json::array();
        for (double v : vs)
            arr.push(Json(v));
        s.set(n, std::move(arr));
    }
    j.set("series", std::move(s));
    return j;
}

bool
Result::fromJson(const Json &j, Result &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!j.isObject())
        return fail("result is not a JSON object");
    const Json *exp = j.find("experiment");
    if (!exp || !exp->isString())
        return fail("missing string field 'experiment'");
    out = Result(exp->asString());
    if (const Json *git = j.find("git"); git && git->isString())
        out.setGitDescribe(git->asString());
    // seed and jobs are exact non-negative integers: a negative,
    // fractional or rounded value is an error, never a cast.
    std::uint64_t v = 0;
    if (const Json *seed = j.find("seed"); seed && seed->isNumber()) {
        if (!seed->exactUint64(&v))
            return fail("'seed' is not an exact non-negative integer");
        out.setSeed(v);
    }
    if (const Json *jobs = j.find("jobs"); jobs && jobs->isNumber()) {
        if (!jobs->exactUint64(&v))
            return fail("'jobs' is not an exact non-negative integer");
        out.setJobs(v);
    }
    if (const Json *simd = j.find("simd"); simd && simd->isString())
        out.setSimd(simd->asString());
    if (const Json *sj = j.find("sampling")) {
        if (!sj->isObject())
            return fail("'sampling' is not an object");
        ResultSampling s;
        if (const Json *m = sj->find("mode"); m && m->isString())
            s.mode = m->asString();
        const Json *frac = sj->find("simulated_fraction");
        if (!frac || !frac->isNumber())
            return fail("'sampling' lacks numeric 'simulated_fraction'");
        s.simulatedFraction = frac->asNumber();
        const Json *bj = sj->find("bounds");
        if (!bj || !bj->isObject())
            return fail("'sampling' lacks object 'bounds'");
        for (const auto &[name, v] : bj->asObject()) {
            if (!v.isNumber())
                return fail("sampling bound '" + name +
                            "' is not a number");
            s.bounds.emplace_back(name, v.asNumber());
        }
        out.setSampling(std::move(s));
    }
    if (const Json *m = j.find("metrics")) {
        if (!m->isObject())
            return fail("'metrics' is not an object");
        for (const auto &[name, v] : m->asObject()) {
            if (!v.isNumber())
                return fail("metric '" + name + "' is not a number");
            // A non-negative integer token is a count metric: its
            // exact 64-bit value survives the round trip and compares
            // exactly. Everything else stays a tolerance-checked
            // double.
            if (v.isUint())
                out.metricCount(name, v.asUint64());
            else
                out.metric(name, v.asNumber());
        }
    }
    if (const Json *s = j.find("series")) {
        if (!s->isObject())
            return fail("'series' is not an object");
        for (const auto &[name, arr] : s->asObject()) {
            if (!arr.isArray())
                return fail("series '" + name + "' is not an array");
            std::vector<double> vs;
            vs.reserve(arr.asArray().size());
            for (const Json &v : arr.asArray()) {
                if (!v.isNumber())
                    return fail("series '" + name +
                                "' has a non-numeric element");
                vs.push_back(v.asNumber());
            }
            out.series(name, std::move(vs));
        }
    }
    return true;
}

namespace {

bool
hasExplicitTolerance(std::string_view name, const Json *tolerances)
{
    if (!tolerances || !tolerances->isObject())
        return false;
    const Json *t = tolerances->find(name);
    return t && t->isObject();
}

Tolerance
toleranceFor(std::string_view name, const Json *tolerances,
             Tolerance fallback)
{
    if (!tolerances || !tolerances->isObject())
        return fallback;
    const Json *t = tolerances->find(name);
    if (!t || !t->isObject())
        return fallback;
    Tolerance tol = fallback;
    if (const Json *a = t->find("abs"); a && a->isNumber())
        tol.abs = a->asNumber();
    if (const Json *r = t->find("rel"); r && r->isNumber())
        tol.rel = r->asNumber();
    return tol;
}

bool
withinTolerance(double golden, double actual, Tolerance tol)
{
    // Non-finite values never pass: NaN-golden vs NaN-actual used to
    // compare equal, which let a broken metric producer hide behind an
    // equally broken golden. Callers detect non-finite inputs first
    // and report them as named structural failures.
    if (!std::isfinite(golden) || !std::isfinite(actual))
        return false;
    return std::abs(actual - golden) <=
        tol.abs + tol.rel * std::abs(golden);
}

/** Non-empty diagnostic when either value is NaN/Inf. */
std::string
nonFiniteNote(double golden, double actual)
{
    if (std::isfinite(golden) && std::isfinite(actual))
        return "";
    std::ostringstream os;
    os << "non-finite value (golden " << golden << ", actual " << actual
       << "): NaN/Inf never passes; fix the producer or regenerate "
          "the golden";
    return os.str();
}

} // namespace

CompareReport
compareResults(const Result &golden, const Result &actual,
               const Json *goldenTolerances, Tolerance fallback)
{
    CompareReport report;
    auto structural = [&](std::string name, std::string note) {
        MetricDiff d;
        d.name = std::move(name);
        d.note = std::move(note);
        report.diffs.push_back(std::move(d));
        report.pass = false;
    };

    auto findSeries =
        [](const Result &r,
           std::string_view name) -> const std::vector<double> * {
        for (const auto &[n, vs] : r.allSeries()) {
            if (n == name)
                return &vs;
        }
        return nullptr;
    };

    // Sampled-execution bound annotations: a bound-annotated metric
    // (or series) is tolerance-checked with abs = the largest declared
    // bound and rel = 0 instead of exactly. The annotations themselves
    // are validated structurally first — a non-finite bound, a bound
    // naming nothing, or a non-finite simulated fraction means the
    // producer is broken, and must not silently widen (or skip) the
    // comparison.
    auto boundFor = [](const Result &r,
                       std::string_view name) -> const double * {
        if (!r.hasSampling())
            return nullptr;
        for (const auto &[n, b] : r.sampling().bounds) {
            if (n == name)
                return &b;
        }
        return nullptr;
    };
    for (const auto *r : {&golden, &actual}) {
        if (!r->hasSampling())
            continue;
        const char *side = r == &golden ? "golden" : "actual";
        const ResultSampling &s = r->sampling();
        if (!std::isfinite(s.simulatedFraction)) {
            structural(std::string("sampling.simulated_fraction (") +
                           side + ")",
                       "non-finite simulated fraction");
        }
        for (const auto &[n, b] : s.bounds) {
            if (!std::isfinite(b)) {
                structural("sampling.bounds." + n + " (" + side + ")",
                           "non-finite error bound");
            }
            if (!r->hasMetric(n) && !findSeries(*r, n)) {
                structural("sampling.bounds." + n + " (" + side + ")",
                           "bound annotates no metric or series");
            }
        }
    }
    auto boundBroken = [&](std::string_view name) {
        const double *gb = boundFor(golden, name);
        const double *ab = boundFor(actual, name);
        return (gb && !std::isfinite(*gb)) ||
            (ab && !std::isfinite(*ab));
    };
    auto widenForBounds = [&](std::string_view name, Tolerance tol) {
        const double *gb = boundFor(golden, name);
        const double *ab = boundFor(actual, name);
        if (!gb && !ab)
            return tol;
        tol.abs = std::max({tol.abs, gb ? *gb : 0.0, ab ? *ab : 0.0});
        tol.rel = 0.0;
        return tol;
    };

    for (const auto &[name, gv] : golden.metrics()) {
        ++report.checked;
        if (!actual.hasMetric(name)) {
            structural(name, "metric missing from run output");
            continue;
        }
        const double av = actual.metricValue(name);
        if (const std::string note = nonFiniteNote(gv, av);
            !note.empty()) {
            structural(name, note);
            continue;
        }
        if (boundBroken(name))
            continue; // its structural failure is already recorded
        if (golden.hasCount(name) && actual.hasCount(name)) {
            // Exact 64-bit comparison: equal or fail, unless an
            // explicit tolerance or sampling bound widens it — then
            // the band applies to the exact integer difference (the
            // doubles would already have collapsed distinct counts
            // above 2^53 into "equal").
            const std::uint64_t gc = golden.countValue(name);
            const std::uint64_t ac = actual.countValue(name);
            const bool widened =
                hasExplicitTolerance(name, goldenTolerances) ||
                boundFor(golden, name) || boundFor(actual, name);
            if (!widened) {
                if (gc != ac) {
                    MetricDiff d;
                    d.name = name;
                    d.golden = gv;
                    d.actual = av;
                    d.note = "exact count mismatch: golden " +
                        std::to_string(gc) + " != actual " +
                        std::to_string(ac);
                    report.diffs.push_back(std::move(d));
                    report.pass = false;
                }
                continue;
            }
            const std::uint64_t delta = gc > ac ? gc - ac : ac - gc;
            const Tolerance tol = widenForBounds(
                name, toleranceFor(name, goldenTolerances, fallback));
            if (static_cast<double>(delta) >
                tol.abs + tol.rel * static_cast<double>(gc)) {
                report.diffs.push_back({name, gv, av, ""});
                report.pass = false;
            }
            continue;
        }
        if (!withinTolerance(gv, av,
                             widenForBounds(
                                 name, toleranceFor(name,
                                                    goldenTolerances,
                                                    fallback)))) {
            report.diffs.push_back({name, gv, av, ""});
            report.pass = false;
        }
    }
    for (const auto &[name, av] : actual.metrics()) {
        if (!golden.hasMetric(name))
            structural(name, "metric absent from golden "
                             "(regenerate goldens?)");
    }

    for (const auto &[name, gvs] : golden.allSeries()) {
        ++report.checked;
        const std::vector<double> *avs = findSeries(actual, name);
        if (!avs) {
            structural(name, "series missing from run output");
            continue;
        }
        if (avs->size() != gvs.size()) {
            structural(name, "series length " +
                                 std::to_string(avs->size()) +
                                 " != golden " +
                                 std::to_string(gvs.size()));
            continue;
        }
        if (boundBroken(name))
            continue; // its structural failure is already recorded
        const Tolerance tol = widenForBounds(
            name, toleranceFor(name, goldenTolerances, fallback));
        for (std::size_t i = 0; i < gvs.size(); ++i) {
            const std::string elem = name + "[" + std::to_string(i) +
                "]";
            if (const std::string note =
                    nonFiniteNote(gvs[i], (*avs)[i]);
                !note.empty()) {
                // One structural failure names the first bad element;
                // a fully-NaN series should not flood the report.
                structural(elem, note);
                break;
            }
            if (!withinTolerance(gvs[i], (*avs)[i], tol)) {
                report.diffs.push_back({elem, gvs[i], (*avs)[i], ""});
                report.pass = false;
            }
        }
    }
    for (const auto &[name, avs] : actual.allSeries()) {
        if (!findSeries(golden, name))
            structural(name, "series absent from golden "
                             "(regenerate goldens?)");
    }
    return report;
}

} // namespace vsmooth
