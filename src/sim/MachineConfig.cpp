//===- sim/MachineConfig.cpp ----------------------------------------------===//

#include "sim/MachineConfig.h"

#include "harness/JsonReader.h"
#include "harness/JsonWriter.h"
#include "sim/Tlb.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>

using namespace spf;
using namespace spf::sim;

const char *sim::hwPrefetchKindName(HwPrefetchKind K) {
  switch (K) {
  case HwPrefetchKind::None:
    return "none";
  case HwPrefetchKind::Stream:
    return "stream";
  case HwPrefetchKind::Rpt:
    return "rpt";
  }
  return "?";
}

std::optional<HwPrefetchKind>
sim::parseHwPrefetchKind(const std::string &Name) {
  if (Name == "none")
    return HwPrefetchKind::None;
  if (Name == "stream")
    return HwPrefetchKind::Stream;
  if (Name == "rpt")
    return HwPrefetchKind::Rpt;
  return std::nullopt;
}

const char *sim::tlbWalkName(TlbWalk W) {
  return W == TlbWalk::Flat ? "flat" : "walked";
}

std::optional<TlbWalk> sim::parseTlbWalk(const std::string &Name) {
  if (Name == "flat")
    return TlbWalk::Flat;
  if (Name == "walked")
    return TlbWalk::Walked;
  return std::nullopt;
}

MachineConfig MachineConfig::pentium4() {
  MachineConfig C;
  C.Name = "Pentium 4";
  // Penalties model the *exposed* (post out-of-order overlap) stall per
  // miss event, not raw DRAM latency: the evaluation machines hide most
  // of the latency behind independent work, which a trace-driven cost
  // model must fold into the per-event charge.
  C.Levels = {
      {"L1", CacheParams{8 * 1024, 64, 4}, /*HitCycles=*/1},
      {"L2", CacheParams{256 * 1024, 128, 8}, /*HitCycles=*/6},
  };
  C.TlbEntries = 64;
  C.PageBytes = 4096;
  C.Walk = TlbWalk::Flat;
  C.MemPenalty = 100;
  C.TlbMissPenalty = 35;
  C.PrefetchFillLatency = 75;
  C.SwFillLevel = 1; // Software prefetches fill only the L2 (Section 4).
  C.HwPrefetch = HwPrefetchKind::Stream;
  return C;
}

MachineConfig MachineConfig::athlonMP() {
  MachineConfig C;
  C.Name = "Athlon MP";
  // 1.2 GHz: shallower pipeline, fewer cycles of exposed memory latency
  // and a hardware page walker with a large DTLB.
  C.Levels = {
      {"L1", CacheParams{64 * 1024, 64, 2}, /*HitCycles=*/1},
      {"L2", CacheParams{256 * 1024, 64, 16}, /*HitCycles=*/4},
  };
  C.TlbEntries = 256;
  C.PageBytes = 4096;
  C.Walk = TlbWalk::Flat;
  C.MemPenalty = 80;
  C.TlbMissPenalty = 18;
  C.PrefetchFillLatency = 80;
  C.SwFillLevel = 0; // Software prefetches fill the L1 (and the L2).
  C.HwPrefetch = HwPrefetchKind::Stream;
  return C;
}

MachineConfig MachineConfig::modern3() {
  MachineConfig C;
  C.Name = "Modern3L";
  // A generic three-level out-of-order core: bigger, deeper hierarchy,
  // hardware page walker (so TLB miss cost depends on cache state), and
  // a per-site stride prefetcher at the LLC.
  C.Levels = {
      {"L1", CacheParams{32 * 1024, 64, 8}, /*HitCycles=*/1},
      {"L2", CacheParams{1024 * 1024, 64, 16}, /*HitCycles=*/10},
      {"LLC", CacheParams{8 * 1024 * 1024, 64, 16}, /*HitCycles=*/28},
  };
  C.TlbEntries = 64;
  C.PageBytes = 4096;
  C.Walk = TlbWalk::Walked;
  C.WalkLevels = 4;
  C.WalkEntryBytes = 8;
  C.WalkIndexBits = 9;
  C.MemPenalty = 120;
  C.PrefetchFillLatency = 100;
  C.SwFillLevel = 0; // prefetcht0 semantics: fill every level.
  C.HwPrefetch = HwPrefetchKind::Rpt;
  C.RptEntries = 64;
  C.HwPrefetchDegree = 2;
  return C;
}

namespace {

/// Registry-normal form: lowercase alphanumerics only, so "Pentium 4",
/// "pentium4" and "PENTIUM_4" collide deliberately.
std::string normalizeName(const std::string &Name) {
  std::string N;
  for (char Ch : Name)
    if (std::isalnum(static_cast<unsigned char>(Ch)))
      N += static_cast<char>(std::tolower(static_cast<unsigned char>(Ch)));
  return N;
}

bool isPowerOfTwo(uint64_t V) { return V != 0 && (V & (V - 1)) == 0; }

} // namespace

std::optional<MachineConfig> MachineConfig::byName(const std::string &Name) {
  std::string N = normalizeName(Name);
  for (MachineConfig (*Builtin)() : {pentium4, athlonMP, modern3}) {
    MachineConfig C = Builtin();
    if (N == normalizeName(C.Name))
      return C;
  }
  // Short aliases for the CLI.
  if (N == "p4")
    return pentium4();
  if (N == "athlon")
    return athlonMP();
  if (N == "modern")
    return modern3();
  return std::nullopt;
}

std::vector<std::string> MachineConfig::knownNames() {
  return {pentium4().Name, athlonMP().Name, modern3().Name};
}

std::string MachineConfig::validate() const {
  std::ostringstream Err;
  auto Bad = [&Err](const std::string &What) { Err << What << "; "; };

  if (Name.empty())
    Bad("machine has no name");
  if (Levels.size() < 2)
    Bad("hierarchy needs at least two cache levels, got " +
        std::to_string(Levels.size()));
  if (Levels.size() > 8)
    Bad("more than 8 cache levels");
  for (size_t I = 0; I != Levels.size(); ++I) {
    const CacheLevel &L = Levels[I];
    std::string Tag =
        "level " + std::to_string(I) + " (" + L.Label + "): ";
    if (L.Label.empty())
      Bad("level " + std::to_string(I) + " has no label");
    if (!isPowerOfTwo(L.Geometry.LineBytes) || L.Geometry.LineBytes < 2)
      Bad(Tag + "line bytes must be a power of two >= 2, got " +
          std::to_string(L.Geometry.LineBytes));
    if (L.Geometry.Assoc == 0)
      Bad(Tag + "associativity must be nonzero");
    else if (L.Geometry.LineBytes >= 2 &&
             isPowerOfTwo(L.Geometry.LineBytes)) {
      uint64_t Sets =
          L.Geometry.SizeBytes / (uint64_t(L.Geometry.LineBytes) *
                                  L.Geometry.Assoc);
      if (!isPowerOfTwo(Sets))
        Bad(Tag + "size/(line*assoc) must be a nonzero power of two, got " +
            std::to_string(Sets) + " sets");
    }
    if (I > 0) {
      if (L.Geometry.SizeBytes < Levels[I - 1].Geometry.SizeBytes)
        Bad(Tag + "smaller than the level above it");
      if (L.Geometry.LineBytes < Levels[I - 1].Geometry.LineBytes)
        Bad(Tag + "line smaller than the level above it");
    }
  }
  if (TlbEntries == 0)
    Bad("TLB needs at least one entry");
  else if (TlbEntries > Tlb::MaxEntries)
    Bad("TLB entries must be at most " + std::to_string(Tlb::MaxEntries) +
        ", got " + std::to_string(TlbEntries));
  if (!isPowerOfTwo(PageBytes) || PageBytes < 2)
    Bad("page bytes must be a power of two >= 2, got " +
        std::to_string(PageBytes));
  if (!Levels.empty() && isPowerOfTwo(PageBytes) &&
      PageBytes < Levels.back().Geometry.LineBytes)
    Bad("page smaller than the largest cache line");
  if (Walk == TlbWalk::Walked) {
    if (WalkLevels == 0 || WalkLevels > 8)
      Bad("walk levels must be 1..8, got " + std::to_string(WalkLevels));
    if (WalkEntryBytes == 0)
      Bad("walk entry bytes must be nonzero");
    if (WalkIndexBits == 0 || WalkIndexBits > 16)
      Bad("walk index bits must be 1..16, got " +
          std::to_string(WalkIndexBits));
  }
  if (SwFillLevel >= Levels.size())
    Bad("software prefetch fill level " + std::to_string(SwFillLevel) +
        " is past the hierarchy (" + std::to_string(Levels.size()) +
        " levels)");
  if (HwPrefetch == HwPrefetchKind::Stream && HwPrefetchStreams == 0)
    Bad("stream prefetcher needs at least one stream");
  if (HwPrefetch == HwPrefetchKind::Rpt && RptEntries == 0)
    Bad("RPT prefetcher needs at least one entry");
  if (HwPrefetch != HwPrefetchKind::None && HwPrefetchDegree == 0)
    Bad("hardware prefetch degree must be nonzero");

  std::string S = Err.str();
  if (!S.empty())
    S.erase(S.size() - 2); // Trailing "; ".
  return S;
}

std::optional<MachineConfig>
MachineConfig::fromJsonText(const std::string &Text, std::string *Error) {
  auto Fail = [Error](const std::string &Msg) -> std::optional<MachineConfig> {
    if (Error)
      *Error = Msg;
    return std::nullopt;
  };

  std::string ParseError;
  std::unique_ptr<harness::JsonValue> Doc =
      harness::JsonValue::parse(Text, &ParseError);
  if (!Doc)
    return Fail("malformed JSON: " + ParseError);
  if (Doc->kind() != harness::JsonValue::Kind::Object)
    return Fail("machine file must be a JSON object");

  // Every count and latency is a 32-bit field: a larger value is an
  // error, not a silent wrap.
  std::string TooWide;
  auto U32 = [&TooWide](const harness::JsonValue &Obj, const char *Key,
                        unsigned Default) -> unsigned {
    uint64_t V = Obj.getU64(Key, Default);
    if (V > UINT32_MAX) {
      if (TooWide.empty())
        TooWide = std::string("\"") + Key + "\" = " + std::to_string(V) +
                  " does not fit in 32 bits";
      return Default;
    }
    return static_cast<unsigned>(V);
  };

  MachineConfig C;
  C.Levels.clear();
  C.Name = Doc->getString("name");

  const harness::JsonValue &Levels = Doc->get("levels");
  if (Levels.kind() != harness::JsonValue::Kind::Array)
    return Fail("machine file needs a \"levels\" array");
  for (const harness::JsonValue &L : Levels.array()) {
    if (L.kind() != harness::JsonValue::Kind::Object)
      return Fail("each cache level must be a JSON object");
    CacheLevel Lvl;
    Lvl.Label = L.getString("label",
                            "L" + std::to_string(C.Levels.size() + 1));
    Lvl.Geometry.SizeBytes = L.getU64("size_bytes", 0);
    Lvl.Geometry.LineBytes = U32(L, "line_bytes", 0);
    Lvl.Geometry.Assoc = U32(L, "assoc", 0);
    Lvl.HitCycles = U32(L, "hit_cycles", 1);
    C.Levels.push_back(std::move(Lvl));
  }

  C.TlbEntries = U32(*Doc, "tlb_entries", 64);
  C.PageBytes = U32(*Doc, "page_bytes", 4096);

  const harness::JsonValue &Tlb = Doc->get("tlb");
  if (!Tlb.isNull()) {
    if (Tlb.kind() != harness::JsonValue::Kind::Object)
      return Fail("\"tlb\" must be a JSON object");
    std::string WalkStr = Tlb.getString("walk", "flat");
    std::optional<TlbWalk> W = parseTlbWalk(WalkStr);
    if (!W)
      return Fail("unknown tlb walk mode \"" + WalkStr +
                  "\" (expected \"flat\" or \"walked\")");
    C.Walk = *W;
    C.TlbMissPenalty = U32(Tlb, "miss_penalty", C.TlbMissPenalty);
    C.WalkLevels = U32(Tlb, "walk_levels", C.WalkLevels);
    C.WalkEntryBytes = U32(Tlb, "walk_entry_bytes", C.WalkEntryBytes);
    C.WalkIndexBits = U32(Tlb, "walk_index_bits", C.WalkIndexBits);
  }

  C.ComputeCycles = U32(*Doc, "compute_cycles", C.ComputeCycles);
  C.MemPenalty = U32(*Doc, "mem_penalty", C.MemPenalty);
  C.PrefetchIssueCost = U32(*Doc, "prefetch_issue_cost", C.PrefetchIssueCost);
  C.GuardedLoadCost = U32(*Doc, "guarded_load_cost", C.GuardedLoadCost);
  C.GuardFaultCost = U32(*Doc, "guard_fault_cost", C.GuardFaultCost);
  C.PrefetchFillLatency =
      U32(*Doc, "prefetch_fill_latency", C.PrefetchFillLatency);

  // The software-prefetch fill level is named by label, so machine files
  // read the way the paper talks ("fills the L2").
  if (Doc->has("sw_prefetch_fill")) {
    std::string Fill = Doc->getString("sw_prefetch_fill");
    bool Found = false;
    for (size_t I = 0; I != C.Levels.size(); ++I)
      if (C.Levels[I].Label == Fill) {
        C.SwFillLevel = static_cast<unsigned>(I);
        Found = true;
        break;
      }
    if (!Found)
      return Fail("sw_prefetch_fill \"" + Fill +
                  "\" names no cache level label");
  } else {
    C.SwFillLevel = C.Levels.size() > 1 ? 1 : 0;
  }

  const harness::JsonValue &Hw = Doc->get("hw_prefetch");
  if (!Hw.isNull()) {
    if (Hw.kind() != harness::JsonValue::Kind::Object)
      return Fail("\"hw_prefetch\" must be a JSON object");
    std::string KindStr = Hw.getString("kind", "stream");
    std::optional<HwPrefetchKind> K = parseHwPrefetchKind(KindStr);
    if (!K)
      return Fail("unknown hw_prefetch kind \"" + KindStr +
                  "\" (expected \"none\", \"stream\" or \"rpt\")");
    C.HwPrefetch = *K;
    C.HwPrefetchStreams = U32(Hw, "streams", C.HwPrefetchStreams);
    C.HwPrefetchDegree = U32(Hw, "degree", C.HwPrefetchDegree);
    C.RptEntries = U32(Hw, "entries", C.RptEntries);
  }

  std::string Invalid = TooWide.empty() ? C.validate() : TooWide;
  if (!Invalid.empty())
    return Fail("invalid machine config" +
                (C.Name.empty() ? std::string() : " \"" + C.Name + "\"") +
                ": " + Invalid);
  return C;
}

std::optional<MachineConfig> MachineConfig::fromFile(const std::string &Path,
                                                     std::string *Error) {
  std::ifstream IS(Path);
  if (!IS) {
    if (Error)
      *Error = "cannot read machine file " + Path;
    return std::nullopt;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  std::string Err;
  std::optional<MachineConfig> C = fromJsonText(SS.str(), &Err);
  if (!C && Error)
    *Error = Path + ": " + Err;
  return C;
}

std::string MachineConfig::toJsonText() const {
  std::ostringstream OS;
  harness::JsonWriter J(OS);
  J.beginObject();
  J.key("name").value(Name);
  J.key("levels").beginArray();
  for (const CacheLevel &L : Levels) {
    J.beginObject();
    J.key("label").value(L.Label);
    J.key("size_bytes").value(L.Geometry.SizeBytes);
    J.key("line_bytes").value(static_cast<uint64_t>(L.Geometry.LineBytes));
    J.key("assoc").value(static_cast<uint64_t>(L.Geometry.Assoc));
    J.key("hit_cycles").value(static_cast<uint64_t>(L.HitCycles));
    J.endObject();
  }
  J.endArray();
  J.key("tlb_entries").value(static_cast<uint64_t>(TlbEntries));
  J.key("page_bytes").value(static_cast<uint64_t>(PageBytes));
  J.key("tlb").beginObject();
  J.key("walk").value(tlbWalkName(Walk));
  J.key("miss_penalty").value(static_cast<uint64_t>(TlbMissPenalty));
  J.key("walk_levels").value(static_cast<uint64_t>(WalkLevels));
  J.key("walk_entry_bytes").value(static_cast<uint64_t>(WalkEntryBytes));
  J.key("walk_index_bits").value(static_cast<uint64_t>(WalkIndexBits));
  J.endObject();
  J.key("compute_cycles").value(static_cast<uint64_t>(ComputeCycles));
  J.key("mem_penalty").value(static_cast<uint64_t>(MemPenalty));
  J.key("prefetch_issue_cost")
      .value(static_cast<uint64_t>(PrefetchIssueCost));
  J.key("guarded_load_cost").value(static_cast<uint64_t>(GuardedLoadCost));
  J.key("guard_fault_cost").value(static_cast<uint64_t>(GuardFaultCost));
  J.key("prefetch_fill_latency")
      .value(static_cast<uint64_t>(PrefetchFillLatency));
  J.key("sw_prefetch_fill").value(Levels[SwFillLevel].Label);
  J.key("hw_prefetch").beginObject();
  J.key("kind").value(hwPrefetchKindName(HwPrefetch));
  J.key("streams").value(static_cast<uint64_t>(HwPrefetchStreams));
  J.key("degree").value(static_cast<uint64_t>(HwPrefetchDegree));
  J.key("entries").value(static_cast<uint64_t>(RptEntries));
  J.endObject();
  J.endObject();
  return OS.str();
}
