#include "lint_graph.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace chrysalis::lint {

namespace {

constexpr const char* kRuleLayering = "chrysalis-layering";
constexpr const char* kRuleCycle = "chrysalis-include-cycle";
constexpr const char* kRuleOrphan = "chrysalis-orphan-header";

/// The real tree's layering contract. Layer 0 is the foundation; a
/// module may include itself and strictly lower layers only. The top
/// modules (tests, benchmarks, tools, examples) may include anything
/// but nothing may include them — they are leaves of the build.
constexpr const char* kDefaultLayers = R"(# CHRYSALIS module layering
common = 0
obs = 1
dnn = 1
energy = 1
runtime = 2
dataflow = 2
fault = 2
hw = 3
sim = 3
search = 4
core = 5
serve = 6
top = tools tests bench examples
)";

bool
starts_with(const std::string& text, const std::string& head)
{
    return text.rfind(head, 0) == 0;
}

bool
ends_with(const std::string& text, const std::string& tail)
{
    return text.size() >= tail.size() &&
           text.compare(text.size() - tail.size(), tail.size(), tail) == 0;
}

std::string
trim_copy(const std::string& text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

bool
is_header_path(const std::string& path)
{
    return ends_with(path, ".hpp") || ends_with(path, ".h");
}

/// Lexically normalizes "a/./b" and "a/x/../b" segments so resolved
/// include paths compare equal to the scanned file set.
std::string
normalize(const std::string& path)
{
    std::vector<std::string> parts;
    std::stringstream stream(path);
    std::string part;
    while (std::getline(stream, part, '/')) {
        if (part.empty() || part == ".")
            continue;
        if (part == ".." && !parts.empty() && parts.back() != "..") {
            parts.pop_back();
            continue;
        }
        parts.push_back(part);
    }
    std::string out;
    for (const std::string& p : parts) {
        if (!out.empty())
            out += '/';
        out += p;
    }
    return out;
}

std::string
dirname_of(const std::string& path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/// One quoted include directive: target text plus the 1-based line.
struct IncludeDirective {
    std::string target;
    int line;
};

std::vector<IncludeDirective>
parse_includes(const std::string& content)
{
    static const std::regex quoted(
        R"(^\s*#\s*include\s*"([^"]+)\")");
    std::vector<IncludeDirective> out;
    std::stringstream stream(content);
    std::string line;
    int number = 0;
    while (std::getline(stream, line)) {
        ++number;
        std::smatch match;
        if (std::regex_search(line, match, quoted))
            out.push_back({match[1].str(), number});
    }
    return out;
}

/// Resolves \p target against the scanned file set the way the build's
/// include directories would: relative to the includer first, then the
/// project include roots. Returns "" when nothing matches (system or
/// generated header — not this pass's business).
std::string
resolve_include(const std::string& includer, const std::string& target,
                const std::set<std::string>& known)
{
    std::vector<std::string> candidates;
    const std::string dir = dirname_of(includer);
    if (!dir.empty())
        candidates.push_back(dir + "/" + target);
    candidates.push_back("src/" + target);
    candidates.push_back("tools/lint/" + target);
    candidates.push_back("bench/" + target);
    candidates.push_back(target);
    for (const std::string& candidate : candidates) {
        const std::string path = normalize(candidate);
        if (known.count(path) > 0)
            return path;
    }
    return std::string();
}

struct Edge {
    std::string to;  ///< resolved repo-relative path
    int line;        ///< line of the #include in the source file
};

/// File-level include graph over the scanned set, with deterministic
/// (sorted) node and edge order.
struct FileGraph {
    std::vector<std::string> nodes;            // sorted paths
    std::map<std::string, std::vector<Edge>> edges;
};

FileGraph
build_graph(const std::vector<GraphFile>& files)
{
    FileGraph graph;
    std::set<std::string> known;
    for (const GraphFile& file : files)
        known.insert(file.path);
    graph.nodes.assign(known.begin(), known.end());
    for (const GraphFile& file : files) {
        std::vector<Edge>& out = graph.edges[file.path];
        for (const IncludeDirective& directive :
             parse_includes(file.content)) {
            const std::string to =
                resolve_include(file.path, directive.target, known);
            if (!to.empty() && to != file.path)
                out.push_back({to, directive.line});
        }
        std::sort(out.begin(), out.end(),
                  [](const Edge& a, const Edge& b) {
                      return std::tie(a.to, a.line) <
                             std::tie(b.to, b.line);
                  });
    }
    return graph;
}

void
add_violation(std::vector<Violation>& out, const std::string& file,
              int line, const char* rule, std::string message)
{
    out.push_back({file, line, rule, std::move(message), ""});
}

// ---- Layer check ---------------------------------------------------------

void
check_layers(std::vector<Violation>& out, const FileGraph& graph,
             const LayerSpec& spec)
{
    for (const std::string& from : graph.nodes) {
        const std::string from_module = module_of(from);
        if (spec.top.count(from_module) > 0)
            continue;  // leaves of the build may include anything
        const auto from_rank = spec.ranks.find(from_module);
        if (from_rank == spec.ranks.end()) {
            add_violation(out, from, 1, kRuleLayering,
                          "module '" + from_module +
                              "' is not in the layering spec; add it to "
                              "the layer table (tools/lint/lint_graph.cpp "
                              "or the --layers file)");
            continue;
        }
        const auto it = graph.edges.find(from);
        if (it == graph.edges.end())
            continue;
        for (const Edge& edge : it->second) {
            const std::string to_module = module_of(edge.to);
            if (to_module == from_module)
                continue;
            if (spec.top.count(to_module) > 0) {
                add_violation(
                    out, from, edge.line, kRuleLayering,
                    "module '" + from_module + "' includes '" + edge.to +
                        "' from top-level module '" + to_module +
                        "'; tests/bench/tools are build leaves and may "
                        "not be depended on");
                continue;
            }
            const auto to_rank = spec.ranks.find(to_module);
            if (to_rank == spec.ranks.end()) {
                add_violation(out, from, edge.line, kRuleLayering,
                              "module '" + to_module +
                                  "' (included via '" + edge.to +
                                  "') is not in the layering spec");
                continue;
            }
            if (to_rank->second >= from_rank->second) {
                add_violation(
                    out, from, edge.line, kRuleLayering,
                    "module '" + from_module + "' (layer " +
                        std::to_string(from_rank->second) +
                        ") may not include '" + edge.to + "' of module '" +
                        to_module + "' (layer " +
                        std::to_string(to_rank->second) +
                        "); include edges must point strictly down the "
                        "layering");
            }
        }
    }
}

// ---- Cycle detection (Tarjan SCC) ----------------------------------------

struct TarjanState {
    const FileGraph& graph;
    std::map<std::string, int> index;
    std::map<std::string, int> lowlink;
    std::set<std::string> on_stack;
    std::vector<std::string> stack;
    int next_index = 0;
    std::vector<std::vector<std::string>> components;

    void strongconnect(const std::string& node)
    {
        index[node] = next_index;
        lowlink[node] = next_index;
        ++next_index;
        stack.push_back(node);
        on_stack.insert(node);
        const auto it = graph.edges.find(node);
        if (it != graph.edges.end()) {
            for (const Edge& edge : it->second) {
                if (index.count(edge.to) == 0) {
                    strongconnect(edge.to);
                    lowlink[node] =
                        std::min(lowlink[node], lowlink[edge.to]);
                } else if (on_stack.count(edge.to) > 0) {
                    lowlink[node] =
                        std::min(lowlink[node], index[edge.to]);
                }
            }
        }
        if (lowlink[node] == index[node]) {
            std::vector<std::string> component;
            while (true) {
                const std::string member = stack.back();
                stack.pop_back();
                on_stack.erase(member);
                component.push_back(member);
                if (member == node)
                    break;
            }
            components.push_back(std::move(component));
        }
    }
};

/// Finds an actual include walk inside \p members from \p start back to
/// itself, so cycle reports show a real chain rather than a bag of
/// files.
std::vector<std::string>
cycle_walk(const FileGraph& graph, const std::set<std::string>& members,
           const std::string& start)
{
    std::vector<std::string> path{start};
    std::set<std::string> visited{start};
    std::string current = start;
    while (true) {
        const auto it = graph.edges.find(current);
        if (it == graph.edges.end())
            break;  // unreachable for a genuine SCC
        bool advanced = false;
        for (const Edge& edge : it->second) {
            if (edge.to == start && path.size() > 1) {
                path.push_back(start);
                return path;
            }
            if (members.count(edge.to) > 0 &&
                visited.count(edge.to) == 0) {
                path.push_back(edge.to);
                visited.insert(edge.to);
                current = edge.to;
                advanced = true;
                break;
            }
            if (edge.to == start && members.size() == 1) {
                path.push_back(start);
                return path;
            }
        }
        if (!advanced) {
            // Dead end inside the SCC: backtrack by closing on the
            // first member that reaches start (guaranteed to exist).
            for (const Edge& edge : it->second) {
                if (edge.to == start) {
                    path.push_back(start);
                    return path;
                }
            }
            break;
        }
    }
    path.push_back(start);
    return path;
}

void
check_cycles(std::vector<Violation>& out, const FileGraph& graph)
{
    TarjanState tarjan{graph, {}, {}, {}, {}, 0, {}};
    for (const std::string& node : graph.nodes) {
        if (tarjan.index.count(node) == 0)
            tarjan.strongconnect(node);
    }
    for (std::vector<std::string>& component : tarjan.components) {
        bool self_loop = false;
        if (component.size() == 1) {
            const auto it = graph.edges.find(component.front());
            if (it != graph.edges.end()) {
                for (const Edge& edge : it->second)
                    self_loop = self_loop || edge.to == component.front();
            }
            if (!self_loop)
                continue;
        }
        std::sort(component.begin(), component.end());
        const std::string& anchor = component.front();
        const std::set<std::string> members(component.begin(),
                                            component.end());
        const std::vector<std::string> walk =
            cycle_walk(graph, members, anchor);
        int line = 1;
        if (walk.size() > 1) {
            const auto it = graph.edges.find(anchor);
            if (it != graph.edges.end()) {
                for (const Edge& edge : it->second) {
                    if (edge.to == walk[1]) {
                        line = edge.line;
                        break;
                    }
                }
            }
        }
        std::string chain;
        for (const std::string& member : walk) {
            if (!chain.empty())
                chain += " -> ";
            chain += member;
        }
        add_violation(out, anchor, line, kRuleCycle,
                      "include cycle: " + chain);
    }
}

// ---- Orphan headers ------------------------------------------------------

void
check_orphans(std::vector<Violation>& out, const FileGraph& graph)
{
    std::set<std::string> reachable;
    std::vector<std::string> frontier;
    for (const std::string& node : graph.nodes) {
        if (!is_header_path(node)) {
            reachable.insert(node);
            frontier.push_back(node);
        }
    }
    while (!frontier.empty()) {
        const std::string node = frontier.back();
        frontier.pop_back();
        const auto it = graph.edges.find(node);
        if (it == graph.edges.end())
            continue;
        for (const Edge& edge : it->second) {
            if (reachable.insert(edge.to).second)
                frontier.push_back(edge.to);
        }
    }
    for (const std::string& node : graph.nodes) {
        if (is_header_path(node) && reachable.count(node) == 0) {
            add_violation(
                out, node, 1, kRuleOrphan,
                "header is not reachable from any translation unit in "
                "the scanned tree; delete it or include it from the "
                "code that should own it");
        }
    }
}

// ---- DOT export ----------------------------------------------------------

std::string
render_dot(const FileGraph& graph, const LayerSpec& spec)
{
    // Module-level projection, layered modules only: the top modules
    // (tests, bench, ...) depend on nearly everything and would bury
    // the architecture under edge clutter.
    std::set<std::string> modules;
    std::set<std::pair<std::string, std::string>> edges;
    for (const std::string& from : graph.nodes) {
        const std::string from_module = module_of(from);
        if (spec.top.count(from_module) > 0)
            continue;
        modules.insert(from_module);
        const auto it = graph.edges.find(from);
        if (it == graph.edges.end())
            continue;
        for (const Edge& edge : it->second) {
            const std::string to_module = module_of(edge.to);
            if (to_module == from_module ||
                spec.top.count(to_module) > 0)
                continue;
            modules.insert(to_module);
            edges.insert({from_module, to_module});
        }
    }

    std::ostringstream dot;
    dot << "digraph chrysalis_modules {\n"
        << "    rankdir = BT;\n"
        << "    node [shape = box, fontname = \"Helvetica\"];\n";
    // Pin each layer to one rank so the drawing mirrors the spec.
    std::map<int, std::vector<std::string>> by_rank;
    for (const std::string& module : modules) {
        const auto it = spec.ranks.find(module);
        if (it != spec.ranks.end())
            by_rank[it->second].push_back(module);
    }
    for (const auto& [rank, names] : by_rank) {
        dot << "    { rank = same;";
        for (const std::string& name : names)
            dot << " \"" << name << "\";";
        dot << " }  // layer " << rank << "\n";
    }
    for (const auto& [from, to] : edges)
        dot << "    \"" << from << "\" -> \"" << to << "\";\n";
    dot << "}\n";
    return dot.str();
}

}  // namespace

// ---- Public API ----------------------------------------------------------

const LayerSpec&
LayerSpec::builtin()
{
    static const LayerSpec spec = [] {
        LayerSpec parsed;
        std::string error;
        if (!LayerSpec::parse(kDefaultLayers, parsed, error))
            // Unreachable unless the embedded table is edited badly;
            // fail loud rather than silently enforce nothing.
            throw std::logic_error("builtin layer spec: " + error);
        return parsed;
    }();
    return spec;
}

bool
LayerSpec::parse(const std::string& text, LayerSpec& spec,
                 std::string& error)
{
    spec = LayerSpec{};
    std::stringstream stream(text);
    std::string line;
    int number = 0;
    while (std::getline(stream, line)) {
        ++number;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim_copy(line);
        if (line.empty())
            continue;
        const std::size_t equals = line.find('=');
        if (equals == std::string::npos) {
            error = "line " + std::to_string(number) +
                    ": expected 'module = rank' or 'top = a b c'";
            return false;
        }
        const std::string key = trim_copy(line.substr(0, equals));
        const std::string value = trim_copy(line.substr(equals + 1));
        if (key.empty() || value.empty()) {
            error = "line " + std::to_string(number) +
                    ": empty module name or value";
            return false;
        }
        if (key == "top") {
            std::stringstream names(value);
            std::string name;
            while (names >> name) {
                if (spec.ranks.count(name) > 0) {
                    error = "line " + std::to_string(number) +
                            ": module '" + name +
                            "' is both ranked and top";
                    return false;
                }
                spec.top.insert(name);
            }
            continue;
        }
        if (spec.ranks.count(key) > 0 || spec.top.count(key) > 0) {
            error = "line " + std::to_string(number) +
                    ": duplicate module '" + key + "'";
            return false;
        }
        try {
            std::size_t consumed = 0;
            const int rank = std::stoi(value, &consumed);
            if (consumed != value.size() || rank < 0)
                throw std::invalid_argument(value);
            spec.ranks[key] = rank;
        } catch (const std::exception&) {
            error = "line " + std::to_string(number) + ": rank '" +
                    value + "' is not a non-negative integer";
            return false;
        }
    }
    if (spec.ranks.empty()) {
        error = "spec declares no ranked modules";
        return false;
    }
    return true;
}

std::string
module_of(const std::string& rel_path)
{
    std::string trimmed = rel_path;
    if (starts_with(trimmed, "src/"))
        trimmed = trimmed.substr(4);
    const std::size_t slash = trimmed.find('/');
    return slash == std::string::npos ? trimmed
                                      : trimmed.substr(0, slash);
}

GraphReport
analyze_graph(const std::vector<GraphFile>& files, const LayerSpec& spec)
{
    const FileGraph graph = build_graph(files);
    GraphReport report;
    check_layers(report.violations, graph, spec);
    check_cycles(report.violations, graph);
    check_orphans(report.violations, graph);
    std::sort(report.violations.begin(), report.violations.end(),
              [](const Violation& a, const Violation& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    report.dot = render_dot(graph, spec);
    return report;
}

}  // namespace chrysalis::lint
