#include "fuzz.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "simtest/gen.hh"
#include "simtest/properties.hh"
#include "simtest/shrink.hh"

namespace vsmooth::simtest {

namespace fs = std::filesystem;

namespace {

std::string
knownPropertyNames()
{
    std::string names;
    for (const Property &p : propertyRegistry()) {
        if (!names.empty())
            names += ", ";
        names += p.name;
    }
    return names;
}

std::vector<const Property *>
selectProperties(const FuzzOptions &opt)
{
    std::vector<const Property *> out;
    if (opt.properties.empty()) {
        for (const Property &p : propertyRegistry())
            out.push_back(&p);
        return out;
    }
    for (const std::string &name : opt.properties) {
        const Property *p = findProperty(name);
        if (!p) {
            fatal("unknown property '%s' (known properties: %s)",
                  name.c_str(), knownPropertyNames().c_str());
        }
        out.push_back(p);
    }
    return out;
}

/** Per-property tallies for the summary artifact. */
struct PropertyStats
{
    std::uint64_t checked = 0;
    std::uint64_t failures = 0;
};

/** One repro document: the config plus its optional stored property
 *  name. */
struct Repro
{
    FuzzConfig config;
    std::string property; // empty = run the selected set
};

Repro
loadRepro(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        fatal("cannot open repro file '%s' (path typo, or corpus not "
              "checked out?)",
              path.c_str());
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    const Json j = Json::parse(buf.str(), &error);
    if (!error.empty())
        fatal("repro file '%s' is not valid JSON: %s", path.c_str(),
              error.c_str());
    Repro repro;
    if (!FuzzConfig::fromJson(j, repro.config, &error))
        fatal("repro file '%s' is not a valid fuzz config: %s",
              path.c_str(), error.c_str());
    if (const Json *p = j.find("property")) {
        if (!p->isString())
            fatal("repro file '%s': 'property' is not a string",
                  path.c_str());
        repro.property = p->asString();
        if (!findProperty(repro.property)) {
            fatal("repro file '%s' names unknown property '%s' (known "
                  "properties: %s)",
                  path.c_str(), repro.property.c_str(),
                  knownPropertyNames().c_str());
        }
    }
    return repro;
}

/** Check `config` against every property in `props`; prints and
 *  tallies failures.
 *  @return the first property that failed, or nullptr when all held */
const Property *
checkConfig(const FuzzConfig &config,
            const std::vector<const Property *> &props,
            const std::string &label,
            std::vector<PropertyStats> &stats, bool verbose)
{
    const Property *firstFailure = nullptr;
    for (std::size_t i = 0; i < props.size(); ++i) {
        std::string why;
        ++stats[i].checked;
        if (props[i]->check(config, &why)) {
            if (verbose) {
                std::cout << label << " " << props[i]->name
                          << ": ok\n";
            }
            continue;
        }
        ++stats[i].failures;
        if (!firstFailure)
            firstFailure = props[i];
        std::cout << label << " " << props[i]->name << ": FAIL — "
                  << why << "\n";
    }
    return firstFailure;
}

void
writeShrunkRepro(const FuzzConfig &failing, const Property &property,
                 const std::string &path)
{
    const ShrinkOutcome shrunk = shrinkConfig(failing, property);
    std::ofstream os(path);
    if (!os) {
        warn("cannot write repro file '%s'; printing instead",
             path.c_str());
        std::cout << reproJson(shrunk.config, property.name).dump(2)
                  << "\n";
        return;
    }
    reproJson(shrunk.config, property.name).write(os, 2);
    os << "\n";
    std::cout << "shrunk repro (" << shrunk.accepted << " reduction(s), "
              << shrunk.attempts << " re-check(s)) written to " << path
              << "\n"
              << "replay with: vsmooth fuzz --repro " << path << "\n";
}

void
printSummary(const std::vector<const Property *> &props,
             const std::vector<PropertyStats> &stats)
{
    TextTable t("fuzz summary");
    t.setHeader({"property", "checked", "failures"});
    for (std::size_t i = 0; i < props.size(); ++i) {
        t.addRow({props[i]->name, TextTable::num(stats[i].checked),
                  TextTable::num(stats[i].failures)});
    }
    t.print(std::cout);
}

void
writeSummaryFile(const FuzzOptions &opt, const std::string &mode,
                 const std::vector<const Property *> &props,
                 const std::vector<PropertyStats> &stats)
{
    if (opt.summaryFile.empty())
        return;
    // Deterministic content only (no timestamps, no host info): two
    // same-seed runs must produce byte-identical artifacts.
    Json j = Json::object();
    j.set("mode", Json(mode));
    j.set("seed", Json(static_cast<double>(opt.seed)));
    j.set("iters", Json(static_cast<double>(opt.iters)));
    Json arr = Json::array();
    for (std::size_t i = 0; i < props.size(); ++i) {
        Json p = Json::object();
        p.set("name", Json(props[i]->name));
        p.set("checked",
              Json(static_cast<double>(stats[i].checked)));
        p.set("failures",
              Json(static_cast<double>(stats[i].failures)));
        arr.push(std::move(p));
    }
    j.set("properties", std::move(arr));
    std::ofstream os(opt.summaryFile);
    if (!os)
        fatal("cannot write summary file '%s'",
              opt.summaryFile.c_str());
    j.write(os, 2);
    os << "\n";
}

int
runReplay(const FuzzOptions &opt,
          const std::vector<std::string> &files, const char *mode)
{
    std::size_t failures = 0;
    // Stored property subsets vary per repro, so replay tallies are
    // kept against the full registry.
    std::vector<const Property *> all;
    for (const Property &p : propertyRegistry())
        all.push_back(&p);
    std::vector<PropertyStats> stats(all.size());

    for (const std::string &file : files) {
        const Repro repro = loadRepro(file);
        std::vector<const Property *> props;
        std::vector<PropertyStats> local;
        if (!repro.property.empty()) {
            props.push_back(findProperty(repro.property));
        } else if (!opt.properties.empty()) {
            props = selectProperties(opt);
        } else {
            props = all;
        }
        local.resize(props.size());
        const bool ok = !checkConfig(repro.config, props,
                                     fs::path(file).filename().string(),
                                     local, opt.verbose);
        if (ok)
            std::cout << fs::path(file).filename().string()
                      << ": PASS (" << props.size()
                      << " propert" << (props.size() == 1 ? "y" : "ies")
                      << ")\n";
        else
            ++failures;
        for (std::size_t i = 0; i < props.size(); ++i) {
            for (std::size_t k = 0; k < all.size(); ++k) {
                if (all[k] == props[i]) {
                    stats[k].checked += local[i].checked;
                    stats[k].failures += local[i].failures;
                }
            }
        }
    }
    printSummary(all, stats);
    writeSummaryFile(opt, mode, all, stats);
    std::cout << (files.size() - failures) << "/" << files.size()
              << " repro(s) passed\n";
    return failures == 0 ? 0 : 1;
}

} // namespace

int
runFuzz(const FuzzOptions &opt)
{
    if (opt.listProperties) {
        // One table per subsystem (groups in first-appearance order,
        // registry order within), with each property's extra
        // generator parameter ranges alongside its invariant.
        std::vector<std::string_view> groups;
        for (const Property &p : propertyRegistry()) {
            if (std::find(groups.begin(), groups.end(),
                          std::string_view(p.subsystem)) == groups.end())
                groups.push_back(p.subsystem);
        }
        for (std::string_view g : groups) {
            TextTable t("properties: " + std::string(g));
            t.setHeader({"property", "checks", "parameter ranges"});
            for (const Property &p : propertyRegistry()) {
                if (std::string_view(p.subsystem) != g)
                    continue;
                t.addRow({p.name, p.summary,
                          p.params ? p.params : "-"});
            }
            t.print(std::cout);
        }
        return 0;
    }

    if (!opt.reproFile.empty())
        return runReplay(opt, {opt.reproFile}, "repro");

    if (!opt.corpusDir.empty()) {
        if (!fs::is_directory(opt.corpusDir)) {
            fatal("corpus directory '%s' does not exist (expected a "
                  "directory of repro .json files, e.g. tests/corpus)",
                  opt.corpusDir.c_str());
        }
        std::vector<std::string> files;
        for (const auto &entry : fs::directory_iterator(opt.corpusDir)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".json") {
                files.push_back(entry.path().string());
            }
        }
        if (files.empty()) {
            fatal("corpus directory '%s' contains no .json repro "
                  "files",
                  opt.corpusDir.c_str());
        }
        std::sort(files.begin(), files.end());
        return runReplay(opt, files, "corpus");
    }

    // Every config is checked against every selected property, so a
    // failure never hides the configs after it. Configs come only
    // from `rng`, so the property selection cannot change them.
    const auto props = selectProperties(opt);
    std::vector<PropertyStats> stats(props.size());
    Rng rng(opt.seed);
    std::uint64_t failingConfigs = 0;

    for (std::uint64_t iter = 0; iter < opt.iters; ++iter) {
        FuzzConfig config = fuzzConfigGen(rng);
        if (opt.forceLanes != 0)
            config.laneWidth = opt.forceLanes;
        const Property *failed = checkConfig(
            config, props, "iter " + std::to_string(iter), stats, false);
        if (failed) {
            std::cout << "failing config:\n"
                      << config.toJson(true).dump(2) << "\n";
            // Shrinking re-runs the property many times; one repro
            // is enough to start debugging from.
            if (++failingConfigs == 1)
                writeShrunkRepro(config, *failed, opt.reproOut);
        }
        if (opt.verbose && (iter + 1) % 100 == 0)
            std::cout << "completed " << (iter + 1) << "/" << opt.iters
                      << " iterations\n";
    }

    printSummary(props, stats);
    writeSummaryFile(opt, "generate", props, stats);
    if (failingConfigs != 0) {
        std::cout << opt.iters << " configs x " << props.size()
                  << " properties: " << failingConfigs
                  << " config(s) failed (seed " << opt.seed << ")\n";
        return 1;
    }
    std::cout << opt.iters << " configs x " << props.size()
              << " properties: all held (seed " << opt.seed << ")\n";
    return 0;
}

} // namespace vsmooth::simtest
