//===- obs/DecisionLog.cpp - Per-loop compiler decision events ------------===//

#include "obs/DecisionLog.h"

#include "harness/JsonWriter.h"
#include "ir/BasicBlock.h"
#include "ir/Instruction.h"

namespace spf {
namespace obs {

thread_local constinit DecisionLog *DecisionScope::Current = nullptr;

void DecisionLog::record(DecisionEvent E) {
  if (E.Method.empty())
    E.Method = CtxMethod;
  if (E.Loop == 0)
    E.Loop = CtxLoop;
  Events.push_back(std::move(E));
}

void DecisionLog::event(const char *Pass, const char *Event, std::string Site,
                        std::string Detail, int64_t Stride, uint64_t Samples,
                        double Confidence) {
  DecisionEvent E;
  E.Pass = Pass;
  E.Event = Event;
  E.Site = std::move(Site);
  E.Detail = std::move(Detail);
  E.Stride = Stride;
  E.Samples = Samples;
  E.Confidence = Confidence;
  record(std::move(E));
}

std::string siteLabel(const ir::Value *V) {
  if (!V)
    return "";
  if (!V->name().empty())
    return "%" + V->name();
  if (const auto *I = dyn_cast<ir::Instruction>(V)) {
    std::string Label = ir::opcodeName(I->opcode());
    if (I->parent())
      Label += "@" + I->parent()->name();
    return Label;
  }
  return "<value>";
}

void writeDecisionJson(harness::JsonWriter &J, const DecisionEvent &E) {
  J.beginObject();
  J.key("method").value(E.Method);
  J.key("loop").value(E.Loop);
  J.key("pass").value(E.Pass);
  J.key("event").value(E.Event);
  if (!E.Site.empty())
    J.key("site").value(E.Site);
  if (!E.Detail.empty())
    J.key("detail").value(E.Detail);
  if (E.Stride != 0)
    J.key("stride").value(E.Stride);
  if (E.Samples != 0)
    J.key("samples").value(E.Samples);
  if (E.Confidence != 0)
    J.key("confidence").value(E.Confidence);
  J.endObject();
}

} // namespace obs
} // namespace spf
