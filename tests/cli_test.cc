// CLI command library: flag parsing and end-to-end command flows against
// temporary files.

#include "cli/cli.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace kpj::cli {
namespace {

std::vector<std::string> Args(std::initializer_list<const char*> parts) {
  return {parts.begin(), parts.end()};
}

TEST(ParseArgsTest, CommandsAndFlagForms) {
  auto parsed =
      ParseArgs(Args({"query", "--graph", "g.bin", "--k=5", "--stats"}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().command, "query");
  EXPECT_EQ(parsed.value().Get("graph").value(), "g.bin");
  EXPECT_EQ(parsed.value().Get("k").value(), "5");
  EXPECT_TRUE(parsed.value().Has("stats"));
  EXPECT_FALSE(parsed.value().Has("alpha"));
}

TEST(ParseArgsTest, Errors) {
  EXPECT_FALSE(ParseArgs({}).ok());
  EXPECT_FALSE(ParseArgs(Args({"query", "oops"})).ok());
  EXPECT_FALSE(ParseArgs(Args({"query", "--"})).ok());
}

TEST(ParseArgsTest, GetIntAndRequire) {
  auto parsed = ParseArgs(Args({"x", "--n", "12", "--bad", "zz"}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetInt("n", 7).value(), 12);
  EXPECT_EQ(parsed.value().GetInt("missing", 7).value(), 7);
  EXPECT_FALSE(parsed.value().GetInt("bad", 7).ok());
  EXPECT_TRUE(parsed.value().Require("n").ok());
  EXPECT_FALSE(parsed.value().Require("missing").ok());
}

TEST(ParseAlgorithmTest, AllNamesRoundTrip) {
  for (Algorithm a : kAllAlgorithms) {
    Result<Algorithm> parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(a);
    EXPECT_EQ(parsed.value(), a);
  }
  EXPECT_EQ(ParseAlgorithm("da_spt").value(), Algorithm::kDaSpt);
  EXPECT_EQ(ParseAlgorithm("ITERBOUNDI").value(),
            Algorithm::kIterBoundSptI);
  EXPECT_FALSE(ParseAlgorithm("dijkstra").ok());
}

TEST(ParseNodeListTest, ListsAndErrors) {
  EXPECT_EQ(ParseNodeList("1,2,3").value(),
            (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(ParseNodeList("7").value(), (std::vector<NodeId>{7}));
  EXPECT_FALSE(ParseNodeList("").ok());
  EXPECT_FALSE(ParseNodeList("1,x").ok());
  EXPECT_FALSE(ParseNodeList("1,-2").ok());
  EXPECT_FALSE(ParseNodeList("4294967296").ok());
}

class CliFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kpj_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }

  int Run(std::vector<std::string> args, std::string* stdout_text = nullptr,
          std::string* stderr_text = nullptr) {
    std::ostringstream out, err;
    int code = RunCli(args, out, err);
    if (stdout_text != nullptr) *stdout_text = out.str();
    if (stderr_text != nullptr) *stderr_text = err.str();
    return code;
  }

  std::filesystem::path dir_;
};

TEST_F(CliFlowTest, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(Run(Args({"help"}), &out), 0);
  EXPECT_NE(out.find("kpj_cli"), std::string::npos);
}

TEST_F(CliFlowTest, UnknownCommandFails) {
  std::string err;
  EXPECT_NE(Run(Args({"frobnicate"}), nullptr, &err), 0);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(CliFlowTest, FullPipeline) {
  std::string g = PathFor("g.bin");
  std::string lm = PathFor("g.lm");
  std::string out;

  // generate
  ASSERT_EQ(Run({"generate", "--nodes", "2000", "--seed", "3", "--out", g},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("generated"), std::string::npos);

  // info
  ASSERT_EQ(Run({"info", "--graph", g}, &out), 0);
  EXPECT_NE(out.find("SCCs"), std::string::npos);

  // convert to DIMACS and back
  std::string gr = PathFor("g.gr");
  std::string back = PathFor("g2.bin");
  ASSERT_EQ(Run({"convert", "--in", g, "--out", gr}), 0);
  ASSERT_EQ(Run({"convert", "--in", gr, "--out", back}), 0);

  // landmarks
  ASSERT_EQ(Run({"landmarks", "--graph", g, "--out", lm, "--count", "4"},
                &out),
            0);

  // query (all algorithms agree on output lengths)
  std::string first;
  for (const char* algorithm :
       {"DA", "BestFirst", "IterBoundI", "IterBoundI-NL"}) {
    ASSERT_EQ(Run({"query", "--graph", g, "--landmarks", lm, "--source",
                   "0", "--targets", "100,200,300", "--k", "5",
                   "--algorithm", algorithm, "--stats"},
                  &out),
              0)
        << algorithm << ": " << out;
    // Strip the trailing comment lines (timing differs run to run).
    std::string lengths;
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line[0] != '#') lengths += line + "\n";
    }
    if (first.empty()) {
      first = lengths;
    } else {
      EXPECT_EQ(lengths, first) << algorithm;
    }
  }

  // batch
  std::string queries = PathFor("queries.txt");
  {
    std::ofstream qf(queries);
    qf << "# comment\n"
       << "0 3 100 200\n"
       << "5 2 300\n";
  }
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries, "--landmarks",
                 lm},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("query 2:"), std::string::npos);
  EXPECT_NE(out.find("query 3:"), std::string::npos);
  EXPECT_NE(out.find("2 queries"), std::string::npos);
}

TEST_F(CliFlowTest, ReorderPreservesQueryResults) {
  std::string g = PathFor("g.bin");
  std::string lm = PathFor("g.lm");
  ASSERT_EQ(Run({"generate", "--nodes", "2000", "--seed", "5", "--out", g}),
            0);
  ASSERT_EQ(Run({"landmarks", "--graph", g, "--out", lm, "--count", "4"}),
            0);

  auto paths_only = [](const std::string& text) {
    std::string lengths;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line[0] != '#') lengths += line + "\n";
    }
    return lengths;
  };
  std::vector<std::string> query = {"query",     "--graph",   g,
                                    "--source",  "3",         "--targets",
                                    "150,700,1300", "--k",    "5",
                                    "--landmarks", lm};
  std::string baseline;
  ASSERT_EQ(Run(query, &baseline), 0) << baseline;
  ASSERT_FALSE(paths_only(baseline).empty());

  // In-memory reordering at query time: same paths, same (original) ids.
  for (const char* strategy : {"bfs", "degree", "hybrid"}) {
    std::string out;
    std::vector<std::string> args = query;
    args.push_back("--reorder");
    args.push_back(strategy);
    ASSERT_EQ(Run(args, &out), 0) << strategy << ": " << out;
    EXPECT_EQ(paths_only(out), paths_only(baseline)) << strategy;
  }

  // Reordering baked into the file: info reports it, ids stay original.
  std::string g2 = PathFor("g_bfs.bin");
  std::string out;
  ASSERT_EQ(Run({"convert", "--in", g, "--out", g2, "--reorder", "bfs"},
                &out),
            0)
      << out;
  ASSERT_EQ(Run({"info", "--graph", g2}, &out), 0);
  EXPECT_NE(out.find("reordered:    yes"), std::string::npos);
  std::vector<std::string> query2 = query;
  query2[2] = g2;
  query2[10] = PathFor("g2.lm");  // Landmarks aligned to the file's layout.
  ASSERT_EQ(Run({"landmarks", "--graph", g2, "--out", query2[10], "--count",
                 "4"}),
            0);
  ASSERT_EQ(Run(query2, &out), 0) << out;
  EXPECT_EQ(paths_only(out), paths_only(baseline));

  // DIMACS text cannot carry a permutation.
  std::string err;
  EXPECT_NE(Run({"convert", "--in", g, "--out", PathFor("g.gr"),
                 "--reorder", "bfs"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("permutation"), std::string::npos);
}

TEST_F(CliFlowTest, LandmarksThreadsFlagIsByteIdentical) {
  std::string g = PathFor("g.bin");
  std::string lm1 = PathFor("g1.lm");
  std::string lm4 = PathFor("g4.lm");
  ASSERT_EQ(Run({"generate", "--nodes", "800", "--seed", "6", "--out", g}),
            0);
  ASSERT_EQ(Run({"landmarks", "--graph", g, "--out", lm1, "--count", "3"}),
            0);
  ASSERT_EQ(Run({"landmarks", "--graph", g, "--out", lm4, "--count", "3",
                 "--threads", "4"}),
            0);
  std::ifstream f1(lm1, std::ios::binary), f4(lm4, std::ios::binary);
  std::stringstream b1, b4;
  b1 << f1.rdbuf();
  b4 << f4.rdbuf();
  EXPECT_EQ(b1.str(), b4.str());

  std::string err;
  EXPECT_NE(Run({"landmarks", "--graph", g, "--out", lm1, "--threads", "0"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("--threads"), std::string::npos);
}

TEST_F(CliFlowTest, QueryErrors) {
  std::string g = PathFor("g.bin");
  ASSERT_EQ(Run({"generate", "--nodes", "500", "--out", g}), 0);
  std::string err;
  EXPECT_NE(Run({"query", "--graph", g, "--targets", "1"}, nullptr, &err),
            0);  // Missing --source.
  EXPECT_NE(err.find("--source"), std::string::npos);
  EXPECT_NE(Run({"query", "--graph", g, "--source", "0", "--targets", "1",
                 "--algorithm", "nope"},
                nullptr, &err),
            0);
  EXPECT_NE(Run({"query", "--graph", PathFor("missing.bin"), "--source",
                 "0", "--targets", "1"},
                nullptr, &err),
            0);
  EXPECT_NE(Run({"query", "--graph", g, "--source", "0", "--targets", "1",
                 "--alpha", "0.5"},
                nullptr, &err),
            0);
}

TEST_F(CliFlowTest, LandmarkGraphMismatchRejected) {
  std::string g1 = PathFor("g1.bin");
  std::string g2 = PathFor("g2.bin");
  std::string lm = PathFor("g1.lm");
  ASSERT_EQ(Run({"generate", "--nodes", "500", "--seed", "1", "--out", g1}),
            0);
  ASSERT_EQ(Run({"generate", "--nodes", "900", "--seed", "2", "--out", g2}),
            0);
  ASSERT_EQ(Run({"landmarks", "--graph", g1, "--out", lm, "--count", "2"}),
            0);
  std::string err;
  EXPECT_NE(Run({"query", "--graph", g2, "--landmarks", lm, "--source",
                 "0", "--targets", "1"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("different graph"), std::string::npos);
}


TEST_F(CliFlowTest, PoisAndCategoryQuery) {
  std::string g = PathFor("g.bin");
  std::string cats = PathFor("g.cats");
  std::string out;
  ASSERT_EQ(Run({"generate", "--nodes", "3000", "--seed", "4", "--out", g},
                &out),
            0);
  ASSERT_EQ(Run({"pois", "--graph", g, "--out", cats}, &out), 0) << out;
  EXPECT_NE(out.find("T1"), std::string::npos);
  EXPECT_NE(out.find("T4"), std::string::npos);

  ASSERT_EQ(Run({"query", "--graph", g, "--source", "0", "--categories",
                 cats, "--category", "T2", "--k", "3"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("3 paths"), std::string::npos);

  std::string err;
  EXPECT_NE(Run({"query", "--graph", g, "--source", "0", "--categories",
                 cats, "--category", "Nope"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("NotFound"), std::string::npos);
  // --category without --categories is an error.
  EXPECT_NE(Run({"query", "--graph", g, "--source", "0", "--category",
                 "T2"},
                nullptr, &err),
            0);
}


/// The " -> " path lines of a query's output (timing comments dropped).
std::string PathLines(const std::string& text) {
  std::istringstream in(text);
  std::string line, paths;
  while (std::getline(in, line)) {
    if (line.find(" -> ") != std::string::npos) paths += line + "\n";
  }
  return paths;
}

TEST_F(CliFlowTest, ConvertToNonV4NamesDroppedIndexes) {
  std::string g = PathFor("g.bin");
  std::string lm = PathFor("g.lm");
  std::string cats = PathFor("g.cats");
  std::string g4 = PathFor("g4.bin");
  std::string out;
  ASSERT_EQ(Run({"generate", "--nodes", "2000", "--seed", "5", "--out", g},
                &out),
            0);
  ASSERT_EQ(Run({"landmarks", "--graph", g, "--out", lm, "--count", "4"},
                &out),
            0);
  ASSERT_EQ(Run({"pois", "--graph", g, "--out", cats}, &out), 0);
  ASSERT_EQ(Run({"convert", "--in", g, "--format", "v4", "--landmarks", lm,
                 "--categories", cats, "--out", g4},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("+landmarks +categories"), std::string::npos) << out;

  // A v4 input converted to v1/v2 or DIMACS keeps the graph but cannot
  // carry the embedded indexes: the summary must say which were dropped.
  for (const char* name : {"gb.bin", "g.gr"}) {
    std::string target = PathFor(name);
    ASSERT_EQ(Run({"convert", "--in", g4, "--format", "bin", "--out",
                   target},
                  &out),
              0)
        << out;
    EXPECT_NE(out.find("dropped: landmarks, categories (only --format v4 "
                       "stores them)"),
              std::string::npos)
        << name << ": " << out;
  }
  // The converted graph still answers exactly like the v4 file once the
  // dropped landmarks are supplied again.
  std::string want, got;
  ASSERT_EQ(Run({"query", "--graph", g4, "--source", "0", "--targets",
                 "100,700,1500", "--k", "4"},
                &want),
            0);
  ASSERT_EQ(Run({"query", "--graph", PathFor("gb.bin"), "--landmarks", lm,
                 "--source", "0", "--targets", "100,700,1500", "--k", "4"},
                &got),
            0);
  EXPECT_FALSE(PathLines(want).empty());
  EXPECT_EQ(PathLines(want), PathLines(got));

  // Nothing embedded, nothing dropped.
  ASSERT_EQ(Run({"convert", "--in", g, "--out", PathFor("plain.bin")}, &out),
            0);
  EXPECT_EQ(out.find("dropped"), std::string::npos) << out;
}

TEST_F(CliFlowTest, ObservabilityFlagsEmitMetricsAndTraces) {
  std::string g = PathFor("g.bin");
  std::string queries = PathFor("q.txt");
  ASSERT_EQ(Run({"generate", "--nodes", "1500", "--seed", "8", "--out", g}),
            0);
  {
    std::ofstream qf(queries);
    qf << "0 4 500 900\n"
       << "10 3 600\n";
  }

  // JSON metrics to stdout via the new --metrics-out spelling.
  std::string out;
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries,
                 "--metrics-out", "-"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("\"queries_served\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"algo_node_expansions\""), std::string::npos);

  // Prometheus text exposition.
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries,
                 "--metrics-out", "-", "--metrics-format", "prom"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("# TYPE kpj_queries_served_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("kpj_queries_served_total 2"), std::string::npos);
  EXPECT_NE(out.find("kpj_query_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);

  // The legacy --metrics-json spelling still works.
  std::string mpath = PathFor("metrics.json");
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries,
                 "--metrics-json", mpath}),
            0);
  std::ifstream mf(mpath);
  std::stringstream mbody;
  mbody << mf.rdbuf();
  EXPECT_NE(mbody.str().find("\"queries_served\": 2"), std::string::npos);

  // --trace-out writes a Chrome trace with the per-query span taxonomy.
  std::string tpath = PathFor("trace.json");
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries, "--trace-out",
                 tpath}),
            0);
  std::ifstream tf(tpath);
  std::stringstream tbody;
  tbody << tf.rdbuf();
  EXPECT_NE(tbody.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tbody.str().find("\"engine.query\""), std::string::npos);
  EXPECT_NE(tbody.str().find("\"instance.prepare\""), std::string::npos);
  EXPECT_NE(tbody.str().find("\"solver.run\""), std::string::npos);

  // query takes the same flags; --slow-query-ms with a tiny threshold
  // pushes the query into the slow-query counter.
  ASSERT_EQ(Run({"query", "--graph", g, "--source", "0", "--targets",
                 "500,900", "--k", "3", "--slow-query-ms", "0.000001",
                 "--metrics-out", "-", "--trace-out", PathFor("q.json")},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("\"slow_queries\": 1"), std::string::npos);

  // Flag validation.
  std::string err;
  EXPECT_NE(Run({"batch", "--graph", g, "--queries", queries,
                 "--metrics-out", "-", "--metrics-format", "xml"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("--metrics-format"), std::string::npos);
  EXPECT_NE(Run({"query", "--graph", g, "--source", "0", "--targets", "500",
                 "--slow-query-ms", "-1"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("--slow-query-ms"), std::string::npos);
}

TEST_F(CliFlowTest, StatsPrintsAlgorithmCounters) {
  std::string g = PathFor("g.bin");
  ASSERT_EQ(Run({"generate", "--nodes", "1500", "--seed", "8", "--out", g}),
            0);
  std::string out;
  ASSERT_EQ(Run({"query", "--graph", g, "--source", "0", "--targets",
                 "500,900", "--k", "3", "--stats"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("# heap pushes:"), std::string::npos);
  EXPECT_NE(out.find("# node expansions:"), std::string::npos);
  EXPECT_NE(out.find("# SPT resume hits/misses:"), std::string::npos);
  EXPECT_NE(out.find("# lower-bound tightness:"), std::string::npos);
}

TEST_F(CliFlowTest, BatchWithThreadsMatchesSerial) {
  std::string g = PathFor("g.bin");
  std::string queries = PathFor("q.txt");
  ASSERT_EQ(Run({"generate", "--nodes", "1500", "--seed", "8", "--out", g}),
            0);
  {
    std::ofstream qf(queries);
    for (int i = 0; i < 12; ++i) {
      qf << (i * 10) << " 4 " << (500 + i) << " " << (900 + i) << "\n";
    }
  }
  auto extract = [](const std::string& text) {
    std::string lengths;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line[0] != '#') lengths += line + "\n";
    }
    return lengths;
  };
  std::string serial, parallel;
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries}, &serial), 0);
  ASSERT_EQ(Run({"batch", "--graph", g, "--queries", queries, "--threads",
                 "4"},
                &parallel),
            0);
  EXPECT_EQ(extract(serial), extract(parallel));
}

}  // namespace
}  // namespace kpj::cli
