// btquery — command-line query driver over XML or BTSX v2 (.btsx2) files.
//
// Usage:
//   btquery [options] <file.xml|file.btsx2> <query>
//   options:
//     --engine=blossom|nav     evaluation engine (default blossom)
//     --strategy=auto|pl|nl    //-join strategy for blossom plans
//     --explain                print the physical plan
//     --advise                 print the cost model's recommendation
//     --save-btsx=<path>       save the document as BTSX v2 (what btingest
//                              writes; query it back as <path>)
//     --trace=<path>           record a query-lifecycle trace and export it
//                              as Chrome trace_event JSON (load the file in
//                              chrome://tracing or https://ui.perfetto.dev)
//     --metrics                print the engine's metric counters and
//                              latency histogram summaries after the query
//
// The query may be a path expression or a full FLWOR expression. A .btsx2
// file is opened as a storage::DiskStore (mmap, no XML parse): queries run
// on its document facade with scans going through the store, and a valid
// `.btsi` sidecar next to it enables index seeks.

#include <cstdio>
#include <cstring>
#include <string>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "flwor/parser.h"
#include "opt/cost_model.h"
#include "pattern/builder.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "util/trace.h"
#include "xml/parser.h"

using namespace blossomtree;

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine_name = "blossom";
  std::string strategy = "auto";
  bool explain = false;
  bool advise = false;
  bool metrics = false;
  std::string trace_path;
  std::string save_btsx;
  std::string file;
  std::string query;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--engine=", 9) == 0) {
      engine_name = arg + 9;
    } else if (std::strncmp(arg, "--strategy=", 11) == 0) {
      strategy = arg + 11;
    } else if (std::strcmp(arg, "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(arg, "--advise") == 0) {
      advise = true;
    } else if (std::strncmp(arg, "--save-btsx=", 12) == 0) {
      save_btsx = arg + 12;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else if (file.empty()) {
      file = arg;
    } else if (query.empty()) {
      query = arg;
    }
  }
  // Start the capture before the query parse so the flwor::ParseQuery span
  // lands on the timeline; the engine leaves a running capture alone.
  if (!trace_path.empty()) util::Tracer::Get().Enable();
  if (file.empty() || query.empty()) {
    std::fprintf(stderr,
                 "usage: btquery [--engine=blossom|nav] [--strategy=auto|pl|"
                 "nl] [--explain] [--advise] [--save-btsx=p] [--trace=p] "
                 "[--metrics] <file> <query>\n");
    return 2;
  }

  // Load the document: a .btsx2 file is mapped as a DiskStore and queried
  // through its document facade; anything else is parsed as XML.
  std::unique_ptr<storage::DiskStore> store;
  std::unique_ptr<xml::Document> parsed_doc;
  Status load_status;
  if (EndsWith(file, ".btsx2")) {
    auto opened = storage::DiskStore::Open(file);
    load_status = opened.status();
    if (opened.ok()) store = opened.MoveValue();
  } else {
    auto loaded = xml::ParseDocumentFile(file);
    load_status = loaded.status();
    if (loaded.ok()) parsed_doc = loaded.MoveValue();
  }
  if (!load_status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load_status.ToString().c_str());
    return 1;
  }
  const xml::Document* doc =
      store != nullptr ? store->document() : parsed_doc.get();
  std::fprintf(stderr, "loaded %zu nodes (%s)\n", doc->NumNodes(),
               doc->IsRecursive() ? "recursive" : "non-recursive");

  if (!save_btsx.empty()) {
    Status st = storage::WriteBtsx2(*doc, save_btsx);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved BTSX v2 to %s\n", save_btsx.c_str());
  }

  auto parsed = flwor::ParseQuery(query);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }

  if (advise && (*parsed)->kind == flwor::Expr::Kind::kPath) {
    auto tree = pattern::BuildFromPath((*parsed)->path);
    if (tree.ok()) {
      opt::PlanAdvice a = opt::AdvisePlan(*doc, *tree);
      std::fprintf(stderr, "advice: %s\n", a.rationale.c_str());
    }
  }

  engine::EngineOptions opts;
  if (strategy == "pl") {
    opts.plan.strategy = opt::JoinStrategy::kPipelined;
  } else if (strategy == "nl") {
    opts.plan.strategy = opt::JoinStrategy::kBoundedNestedLoop;
  }
  opts.trace = !trace_path.empty();
  opts.collect_metrics = metrics;
  // As QueryService does for disk-backed documents: scans go through the
  // store's block cache, and its `.btsi` sidecar (if any) enables seeks.
  if (store != nullptr) {
    opts.plan.store = store.get();
    opts.plan.index = store->index();
  }

  Result<std::string> result("");
  if (engine_name == "nav") {
    baseline::NavigationalEvaluator nav(doc);
    result = nav.EvaluateToXml(**parsed);
  } else {
    engine::BlossomTreeEngine engine(doc, opts);
    result = engine.EvaluateToXml(**parsed);
    if (explain) {
      std::fprintf(stderr, "plan:\n%s", engine.LastExplain().c_str());
    }
    if (metrics) {
      std::fprintf(stderr, "metrics:\n%s%s\n",
                   engine.metrics().CountersText().c_str(),
                   engine.metrics().ToJson().c_str());
    }
  }
  if (!trace_path.empty()) {
    Status st = util::Tracer::Get().ExportJsonFile(trace_path);
    if (st.ok()) {
      std::fprintf(stderr, "trace written to %s (%zu events)\n",
                   trace_path.c_str(), util::Tracer::Get().EventCount());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result->c_str());
  return 0;
}
