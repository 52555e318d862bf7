//===- tests/MachineTest.cpp - machine model tests -------------------------===//

#include "machine/MachineModel.h"

#include <gtest/gtest.h>

using namespace modsched;

TEST(MachineModel, Example3Shape) {
  MachineModel M = MachineModel::example3();
  EXPECT_EQ(M.numResources(), 1);
  EXPECT_EQ(M.resource(0).Count, 3);
  auto Mul = M.findOpClass(opclasses::Mul);
  ASSERT_TRUE(Mul.has_value());
  EXPECT_EQ(M.opClass(*Mul).Latency, 4);
  auto Load = M.findOpClass(opclasses::Load);
  ASSERT_TRUE(Load.has_value());
  EXPECT_EQ(M.opClass(*Load).Latency, 1);
}

TEST(MachineModel, AllBuiltinsDefineCanonicalClasses) {
  const char *Names[] = {opclasses::Load, opclasses::Store, opclasses::Add,
                         opclasses::Sub,  opclasses::Mul,   opclasses::Div,
                         opclasses::Copy, opclasses::Branch};
  for (MachineModel M : {MachineModel::example3(), MachineModel::cydraLike(),
                         MachineModel::vliw2()}) {
    for (const char *Name : Names)
      EXPECT_TRUE(M.findOpClass(Name).has_value())
          << M.name() << " lacks " << Name;
  }
}

TEST(MachineModel, CydraLikeHasComplexUsages) {
  MachineModel M = MachineModel::cydraLike();
  EXPECT_GE(M.numResources(), 5);
  auto Div = M.findOpClass(opclasses::Div);
  ASSERT_TRUE(Div.has_value());
  // Blocking divide: multiple usage cycles of the same resource.
  EXPECT_GE(M.opClass(*Div).Usages.size(), 4u);
  auto Load = M.findOpClass(opclasses::Load);
  ASSERT_TRUE(Load.has_value());
  // Load claims a result bus at a late cycle.
  bool LateUsage = false;
  for (const ResourceUsage &U : M.opClass(*Load).Usages)
    LateUsage |= U.Cycle > 1;
  EXPECT_TRUE(LateUsage);
}

TEST(MachineModel, FindOpClassMissing) {
  MachineModel M = MachineModel::example3();
  EXPECT_FALSE(M.findOpClass("teleport").has_value());
}

TEST(MachineModel, ToStringListsEverything) {
  MachineModel M = MachineModel::vliw2();
  std::string S = M.toString();
  EXPECT_NE(S.find("vliw2"), std::string::npos);
  EXPECT_NE(S.find("mem"), std::string::npos);
  EXPECT_NE(S.find("load"), std::string::npos);
}

namespace {

void expectSameSignature(const MachineModel::Signature &A,
                         const MachineModel::Signature &B,
                         const std::string &What) {
  EXPECT_EQ(A.OpClass, B.OpClass) << What;
  EXPECT_EQ(A.Digest, B.Digest) << What;
}

} // namespace

TEST(MachineModel, MemoizedSignatureEqualsFreshComputation) {
  for (const MachineModel &Built : {MachineModel::example3(),
                                    MachineModel::cydraLike(),
                                    MachineModel::vliw2()}) {
    const MachineModel::Signature Fresh = Built.signature();
    MachineModel M = Built;
    EXPECT_EQ(M.memoizedSignature(), nullptr) << M.name();
    const MachineModel::Signature &Memo = M.memoizeSignature();
    ASSERT_EQ(M.memoizedSignature(), &Memo) << M.name();
    expectSameSignature(Memo, Fresh, M.name() + " memo");
    expectSameSignature(M.signature(), Fresh, M.name() + " served memo");
    // A second call keeps the first memo.
    EXPECT_EQ(&M.memoizeSignature(), &Memo) << M.name();

    MachineModel Copy = M;
    ASSERT_NE(Copy.memoizedSignature(), nullptr) << M.name();
    expectSameSignature(*Copy.memoizedSignature(), Fresh, M.name() + " copy");
    MachineModel Moved = std::move(Copy);
    ASSERT_NE(Moved.memoizedSignature(), nullptr) << M.name();
    expectSameSignature(*Moved.memoizedSignature(), Fresh,
                        M.name() + " move");
  }
}

TEST(MachineModel, MutationDropsMemoizedSignature) {
  MachineModel M = MachineModel::vliw2();
  const uint64_t Before = M.memoizeSignature().Digest;
  int R = M.addResource("extra", 3);
  EXPECT_EQ(M.memoizedSignature(), nullptr) << "addResource kept the memo";
  EXPECT_NE(M.signature().Digest, Before);

  const uint64_t WithResource = M.memoizeSignature().Digest;
  M.addOpClass("extraop", 2, {{R, 0}});
  EXPECT_EQ(M.memoizedSignature(), nullptr) << "addOpClass kept the memo";
  const MachineModel::Signature Fresh = M.signature();
  EXPECT_NE(Fresh.Digest, WithResource);
  EXPECT_EQ(Fresh.OpClass.size(), size_t(M.numOpClasses()));
  expectSameSignature(M.memoizeSignature(), Fresh, "after addOpClass");
}
