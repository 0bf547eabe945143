//===- vm/TypeTable.h - Class and field descriptors -------------*- C++ -*-===//
///
/// \file
/// The simulated JVM's class metadata: field descriptors with fixed byte
/// offsets, class descriptors with instance sizes, and the table that owns
/// them. Object layout mirrors a production JVM closely enough for stride
/// patterns to be a property of allocation order and field offsets, exactly
/// as the paper requires.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_VM_TYPETABLE_H
#define SPF_VM_TYPETABLE_H

#include "ir/Type.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spf {
namespace vm {

/// A simulated heap address. Address 0 is the null reference.
using Addr = uint64_t;

/// Size in bytes of the header preceding every object's fields and every
/// array's elements (descriptor id, flags, and array length).
constexpr unsigned ObjectHeaderSize = 16;

/// Byte offset of the array-length word inside the header. The IR's
/// `arraylength` instruction loads from this offset, matching the paper's
/// observation that array bound checks generate header loads (Table 1).
constexpr unsigned ArrayLengthOffset = 8;

class ClassDesc;

/// Describes one instance field of a class.
struct FieldDesc {
  std::string Name;
  ir::Type Ty = ir::Type::I32;
  /// Byte offset of the field from the object base (header included).
  unsigned Offset = 0;
  /// The class this field belongs to (set by TypeTable::addClass).
  const ClassDesc *Parent = nullptr;
};

/// Describes a class: a name and a fixed field layout.
class ClassDesc {
public:
  ClassDesc(uint32_t Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  uint32_t id() const { return Id; }
  const std::string &name() const { return Name; }

  /// Total allocation size of an instance, header included.
  unsigned instanceSize() const { return Size; }

  const std::vector<std::unique_ptr<FieldDesc>> &fields() const {
    return Fields;
  }

  /// Returns the field named \p FieldName, or null if absent.
  const FieldDesc *findField(const std::string &FieldName) const {
    for (const auto &F : Fields)
      if (F->Name == FieldName)
        return F.get();
    return nullptr;
  }

private:
  friend class TypeTable;

  uint32_t Id;
  std::string Name;
  unsigned Size = ObjectHeaderSize;
  std::vector<std::unique_ptr<FieldDesc>> Fields;
};

/// Owns all class descriptors of a simulated program.
///
/// Classes are built incrementally: create a class, append its fields (each
/// field is laid out at the next naturally aligned offset), then allocate
/// instances through vm::Heap.
class TypeTable {
public:
  TypeTable() = default;
  TypeTable(const TypeTable &) = delete;
  TypeTable &operator=(const TypeTable &) = delete;

  /// Creates a new class with no fields yet.
  ClassDesc *addClass(std::string Name);

  /// Appends a field to \p Cls at the next aligned offset and returns its
  /// descriptor. Must be called before any instance is allocated.
  const FieldDesc *addField(ClassDesc *Cls, std::string Name, ir::Type Ty);

  /// Returns the class with descriptor id \p Id.
  const ClassDesc *classById(uint32_t Id) const {
    return Id < Classes.size() ? Classes[Id].get() : nullptr;
  }

  /// Returns the class named \p Name, or null.
  const ClassDesc *findClass(const std::string &Name) const;

private:
  std::vector<std::unique_ptr<ClassDesc>> Classes;
};

} // namespace vm
} // namespace spf

#endif // SPF_VM_TYPETABLE_H
