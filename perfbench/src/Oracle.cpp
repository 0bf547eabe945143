//===- perfbench/Oracle.cpp -----------------------------------------------===//

#include "Oracle.h"

#include "harness/JsonReader.h"
#include "harness/JsonWriter.h"

#include <fstream>
#include <sstream>

namespace perfbench {

std::string referencePath(const std::string &Dir, const RunKey &Key) {
  return Dir + "/" + Key.Workload + "-" + std::to_string(Key.Seed) + ".json";
}

std::optional<Reference> Reference::load(const std::string &Dir,
                                         const RunKey &Key,
                                         std::string &Error) {
  std::ifstream IS(referencePath(Dir, Key));
  if (!IS)
    return std::nullopt;
  std::stringstream SS;
  SS << IS.rdbuf();
  std::unique_ptr<spf::harness::JsonValue> Doc =
      spf::harness::JsonValue::parse(SS.str(), &Error);
  if (!Doc) {
    Error = referencePath(Dir, Key) + ": " + Error;
    return std::nullopt;
  }
  if (Doc->getString("workload") != Key.Workload ||
      Doc->getU64("seed") != Key.Seed ||
      Doc->getDouble("scale") != Key.Scale ||
      Doc->getU64("epochs") != Key.Epochs)
    return std::nullopt;
  Reference R;
  for (const auto &[Op, Fields] : Doc->get("ops").objectMembers()) {
    Fingerprint &F = R.Ops[Op];
    for (const auto &[Name, V] : Fields.objectMembers())
      F[Name] = V.u64();
  }
  return R;
}

bool Reference::store(const std::string &Dir, const RunKey &Key,
                      const std::map<std::string, Fingerprint> &Ops,
                      std::string &Error) {
  std::ofstream OS(referencePath(Dir, Key), std::ios::trunc);
  if (!OS) {
    Error = "cannot write " + referencePath(Dir, Key);
    return false;
  }
  spf::harness::JsonWriter J(OS);
  J.beginObject();
  J.key("schema").value("perfbench-reference-v1");
  J.key("workload").value(Key.Workload);
  J.key("seed").value(Key.Seed);
  J.key("scale").value(Key.Scale);
  J.key("epochs").value(static_cast<uint64_t>(Key.Epochs));
  J.key("ops").beginObject();
  for (const auto &[Op, Fields] : Ops) {
    J.key(Op).beginObject();
    for (const auto &[Name, V] : Fields)
      J.key(Name).value(V);
    J.endObject();
  }
  J.endObject();
  J.endObject();
  OS << '\n';
  return static_cast<bool>(OS);
}

bool Reference::matches(const std::string &Op, const Fingerprint &Got,
                        std::string &Why) const {
  auto It = Ops.find(Op);
  if (It == Ops.end()) {
    Why = "not in the reference";
    return false;
  }
  if (It->second == Got)
    return true;
  for (const auto &[Name, V] : It->second) {
    auto G = Got.find(Name);
    if (G == Got.end() || G->second != V) {
      Why = Name + " = " +
            (G == Got.end() ? std::string("missing")
                            : std::to_string(G->second)) +
            ", reference " + std::to_string(V);
      return false;
    }
  }
  Why = "extra fields";
  return false;
}

} // namespace perfbench
