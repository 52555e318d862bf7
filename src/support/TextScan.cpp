//===- support/TextScan.cpp - Line and token scanning ---------------------===//

#include "support/TextScan.h"

#include <functional>

using namespace modsched;

std::size_t NameIndex::slotFor(std::string_view Name) const {
  std::size_t Mask = Slots.size() - 1;
  std::size_t Slot = std::hash<std::string_view>()(Name) & Mask;
  while (Slots[Slot] >= 0 && Names[Slots[Slot]] != Name)
    Slot = (Slot + 1) & Mask;
  return Slot;
}

bool NameIndex::insert(std::string_view Name) {
  if (2 * (Names.size() + 1) > Slots.size()) {
    Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), -1);
    for (int Id = 0; Id < size(); ++Id)
      Slots[slotFor(Names[Id])] = Id;
  }
  std::size_t Slot = slotFor(Name);
  if (Slots[Slot] >= 0)
    return false;
  Slots[Slot] = size();
  Names.push_back(Name);
  return true;
}
