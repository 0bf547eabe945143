//===- vm/Heap.cpp --------------------------------------------------------===//

#include "vm/Heap.h"

#include "support/ErrorHandling.h"

using namespace spf;
using namespace spf::vm;

static uint64_t alignUp8(uint64_t N) { return (N + 7) & ~7ull; }

Heap::Heap(const TypeTable &Types, Config Cfg)
    : Types(Types), Cfg(Cfg),
      Storage(static_cast<uint8_t *>(
          std::calloc(Cfg.HeapBytes ? Cfg.HeapBytes : 1, 1))) {
  assert(Cfg.StaticsBase + Cfg.StaticsBytes <= Cfg.HeapBase &&
         "statics area must not overlap the heap");
  if (!Storage)
    reportFatalError("cannot reserve the simulated heap arena");
  // One allocation for the whole area; its pages are touched only as
  // allocStatic hands out slots.
  Statics.reserve(Cfg.StaticsBytes);
}

std::unique_ptr<Heap> Heap::clone() const {
  auto H = std::make_unique<Heap>(Types, Cfg);
  std::memcpy(H->Storage.get(), Storage.get(), Top);
  H->Statics = Statics;
  H->Top = Top;
  H->NumAllocs = NumAllocs;
  H->StaticRefSlots = StaticRefSlots;
  H->FreeList = FreeList;
  H->FreeBytes = FreeBytes;
  return H;
}

bool Heap::sameState(const Heap &Other) const {
  return Top == Other.Top && NumAllocs == Other.NumAllocs &&
         FreeBytes == Other.FreeBytes && FreeList == Other.FreeList &&
         StaticRefSlots == Other.StaticRefSlots && Statics == Other.Statics &&
         std::memcmp(Storage.get(), Other.Storage.get(), Top) == 0;
}

void Heap::formatFiller(Addr A, uint64_t Size) {
  assert(Size >= ObjectHeaderSize && (Size & 7) == 0 && "unparseable hole");
  uint64_t Length = (Size - ObjectHeaderSize) / 8;
  std::memset(ptr(A), 0, ObjectHeaderSize);
  uint32_t Id = static_cast<uint32_t>(ir::Type::I64);
  uint32_t Flags = HF_IsArray;
  std::memcpy(ptr(A), &Id, 4);
  std::memcpy(ptr(A) + 4, &Flags, 4);
  std::memcpy(ptr(A) + ArrayLengthOffset, &Length, 8);
}

void Heap::addFreeBlock(uint64_t Offset, uint64_t Size) {
  formatFiller(Cfg.HeapBase + Offset, Size);
  FreeList.push_back({Offset, Size});
  FreeBytes += Size;
}

Addr Heap::allocFromFreeList(uint64_t Size) {
  for (size_t I = 0, E = FreeList.size(); I != E; ++I) {
    FreeBlock &B = FreeList[I];
    if (B.Size < Size)
      continue;
    uint64_t Rest = B.Size - Size;
    // The remainder must itself be a formattable filler (or nothing);
    // a sub-header sliver would break linear heap walks.
    if (Rest != 0 && Rest < ObjectHeaderSize)
      continue;
    uint64_t Offset = B.Offset;
    FreeBytes -= Size;
    if (Rest != 0) {
      B.Offset = Offset + Size;
      B.Size = Rest;
      formatFiller(Cfg.HeapBase + B.Offset, Rest);
    } else {
      FreeList[I] = FreeList.back();
      FreeList.pop_back();
    }
    return Cfg.HeapBase + Offset;
  }
  return 0;
}

Addr Heap::allocObject(const ClassDesc &Cls) {
  uint64_t Size = alignUp8(Cls.instanceSize());
  Addr A = 0;
  if (!FreeList.empty())
    A = allocFromFreeList(Size);
  if (!A) {
    if (Top + Size > Cfg.HeapBytes)
      return 0;
    A = Cfg.HeapBase + Top;
    Top += Size;
  }
  ++NumAllocs;
  std::memset(ptr(A), 0, Size);
  uint32_t Id = Cls.id();
  std::memcpy(ptr(A), &Id, 4);
  return A;
}

Addr Heap::allocArray(ir::Type ElemTy, uint64_t Length) {
  uint64_t Size =
      alignUp8(ObjectHeaderSize + Length * ir::storageSize(ElemTy));
  Addr A = 0;
  if (!FreeList.empty())
    A = allocFromFreeList(Size);
  if (!A) {
    if (Top + Size > Cfg.HeapBytes)
      return 0;
    A = Cfg.HeapBase + Top;
    Top += Size;
  }
  ++NumAllocs;
  std::memset(ptr(A), 0, Size);
  uint32_t Id = static_cast<uint32_t>(ElemTy);
  uint32_t Flags = HF_IsArray;
  std::memcpy(ptr(A), &Id, 4);
  std::memcpy(ptr(A) + 4, &Flags, 4);
  std::memcpy(ptr(A) + ArrayLengthOffset, &Length, 8);
  return A;
}

Addr Heap::allocStatic(ir::Type Ty) {
  uint64_t Size = ir::storageSize(Ty);
  uint64_t Offset = (Statics.size() + Size - 1) / Size * Size;
  if (Offset + Size > Cfg.StaticsBytes)
    reportFatalError("statics area exhausted");
  Statics.resize(Offset + Size);
  Addr A = Cfg.StaticsBase + Offset;
  if (Ty == ir::Type::Ref)
    StaticRefSlots.push_back(A);
  return A;
}

bool Heap::isArray(Addr Obj) const {
  uint32_t Flags;
  std::memcpy(&Flags, ptr(Obj) + 4, 4);
  return Flags & HF_IsArray;
}

uint64_t Heap::objectSize(Addr Obj) const {
  if (isArray(Obj))
    return alignUp8(ObjectHeaderSize +
                    arrayLength(Obj) * ir::storageSize(arrayElemType(Obj)));
  const ClassDesc *Cls = Types.classById(descId(Obj));
  assert(Cls && "object with unknown class descriptor");
  return alignUp8(Cls->instanceSize());
}

bool Heap::marked(Addr Obj) const {
  uint32_t Flags;
  std::memcpy(&Flags, ptr(Obj) + 4, 4);
  return Flags & HF_Marked;
}

void Heap::setMarked(Addr Obj, bool M) {
  uint32_t Flags;
  std::memcpy(&Flags, ptr(Obj) + 4, 4);
  Flags = M ? (Flags | HF_Marked) : (Flags & ~HF_Marked);
  std::memcpy(ptr(Obj) + 4, &Flags, 4);
}

bool Heap::isObjectStart(Addr A) const {
  for (Addr Obj = Cfg.HeapBase, End = heapTop(); Obj < End;
       Obj += objectSize(Obj)) {
    if (Obj == A)
      return true;
    if (Obj > A)
      return false;
  }
  return false;
}
