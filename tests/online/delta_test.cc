// Dataset deltas: content fingerprints, exact text round-trips, deterministic
// apply semantics, and hostile/truncated inputs failing as kInvalidArgument —
// never a crash. The delta parser is attack surface the same way the model
// and checkpoint parsers are: the retrain daemon reads these files off disk
// at runtime.

#include "online/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_util.h"
#include "sparse/csr_matrix.h"

namespace gmpsvm::online {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

DatasetDelta SampleDelta(const Dataset& base) {
  DatasetDelta delta;
  delta.base_fingerprint = DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  DeltaOp add;
  add.kind = DeltaOp::Kind::kAdd;
  add.label = 1;
  add.indices = {0, 2, 4};
  add.values = {0.5, -1.0 / 3.0, 1e-17};
  delta.ops.push_back(add);
  DeltaOp relabel;
  relabel.kind = DeltaOp::Kind::kRelabel;
  relabel.row = 3;
  relabel.old_label = base.labels()[3];
  relabel.new_label = (base.labels()[3] + 1) % base.num_classes();
  delta.ops.push_back(relabel);
  return delta;
}

TEST(DatasetFingerprintTest, IsContentPureAndLabelSensitive) {
  auto a = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 42));
  auto b = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 42));
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));

  // A single relabel must change the fingerprint.
  std::vector<int32_t> labels = a.labels();
  labels[0] = (labels[0] + 1) % a.num_classes();
  auto relabeled = ValueOrDie(
      Dataset::Create(a.features(), labels, a.num_classes(), "relabeled"));
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(relabeled));

  // The name is NOT part of the content.
  auto renamed = ValueOrDie(
      Dataset::Create(a.features(), a.labels(), a.num_classes(), "other"));
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(renamed));
}

TEST(DeltaIoTest, RoundTripsExactly) {
  auto base = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 7));
  const DatasetDelta delta = SampleDelta(base);
  const DatasetDelta parsed = ValueOrDie(ParseDelta(SerializeDelta(delta)));
  EXPECT_EQ(parsed.base_fingerprint, delta.base_fingerprint);
  EXPECT_EQ(parsed.num_classes, delta.num_classes);
  ASSERT_EQ(parsed.ops.size(), delta.ops.size());
  EXPECT_EQ(parsed.ops[0].kind, DeltaOp::Kind::kAdd);
  EXPECT_EQ(parsed.ops[0].label, delta.ops[0].label);
  EXPECT_EQ(parsed.ops[0].indices, delta.ops[0].indices);
  // %.17g text must reproduce the doubles bit for bit.
  EXPECT_EQ(parsed.ops[0].values, delta.ops[0].values);
  EXPECT_EQ(parsed.ops[1].kind, DeltaOp::Kind::kRelabel);
  EXPECT_EQ(parsed.ops[1].row, delta.ops[1].row);
  EXPECT_EQ(parsed.ops[1].old_label, delta.ops[1].old_label);
  EXPECT_EQ(parsed.ops[1].new_label, delta.ops[1].new_label);
}

TEST(DeltaApplyTest, AppendsAndRelabelsDeterministically) {
  auto base = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 9));
  const DatasetDelta delta = SampleDelta(base);
  auto applied = ValueOrDie(ApplyDelta(base, delta));
  EXPECT_EQ(applied.size(), base.size() + 1);
  EXPECT_EQ(applied.labels().back(), 1);
  EXPECT_EQ(applied.labels()[3], delta.ops[1].new_label);
  // Existing row ids never move: every pre-existing row's content is
  // unchanged under the apply.
  for (int64_t r = 0; r < base.size(); ++r) {
    ASSERT_EQ(applied.features().RowIndices(r).size(),
              base.features().RowIndices(r).size());
    for (size_t j = 0; j < base.features().RowIndices(r).size(); ++j) {
      EXPECT_EQ(applied.features().RowIndices(r)[j],
                base.features().RowIndices(r)[j]);
      EXPECT_EQ(applied.features().RowValues(r)[j],
                base.features().RowValues(r)[j]);
    }
  }
  // Same base + same delta = same fingerprint everywhere.
  auto applied2 = ValueOrDie(ApplyDelta(base, delta));
  EXPECT_EQ(DatasetFingerprint(applied), DatasetFingerprint(applied2));
}

TEST(DeltaApplyTest, RejectsFingerprintMismatch) {
  auto base = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 11));
  DatasetDelta delta = SampleDelta(base);
  delta.base_fingerprint ^= 1;
  auto result = ApplyDelta(base, delta);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(DeltaApplyTest, RejectsStaleRelabel) {
  auto base = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 13));
  DatasetDelta delta;
  delta.base_fingerprint = DatasetFingerprint(base);
  delta.num_classes = base.num_classes();
  DeltaOp op;
  op.kind = DeltaOp::Kind::kRelabel;
  op.row = 0;
  op.old_label = (base.labels()[0] + 1) % base.num_classes();  // wrong
  op.new_label = (base.labels()[0] + 2) % base.num_classes();
  delta.ops.push_back(op);
  auto result = ApplyDelta(base, delta);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(DeltaApplyTest, AffectedClassesCoverAddsAndRelabels) {
  auto base = ValueOrDie(MakeMulticlassBlobs(4, 10, 5, 2.5, 15));
  DatasetDelta delta = SampleDelta(base);  // add -> class 1, relabel 3's row
  const std::vector<int> affected = AffectedClasses(delta);
  EXPECT_FALSE(affected.empty());
  for (size_t i = 1; i < affected.size(); ++i) {
    EXPECT_LT(affected[i - 1], affected[i]);  // sorted, deduplicated
  }
  // The add's label and both relabel sides are present.
  auto contains = [&affected](int cls) {
    return std::find(affected.begin(), affected.end(), cls) != affected.end();
  };
  EXPECT_TRUE(contains(1));
  EXPECT_TRUE(contains(delta.ops[1].old_label));
  EXPECT_TRUE(contains(delta.ops[1].new_label));
}

TEST(DeltaParseTest, HostileInputsAreInvalidArgument) {
  const std::vector<std::string> hostile = {
      "",
      "   \n\t\n",
      "gmpsvm_model_v1\nbase_fingerprint 1\n",
      "gmpsvm_delta_v1\n",
      "gmpsvm_delta_v1\nbase_fingerprint abc\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 1\nops 0\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\n"
      "ops 999999999999\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "explode 1 2 3\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 7 0\n",  // label out of range
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 1 999999999999\n",  // hostile nnz
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 1 2 3:1.0 1:2.0\n",  // indices not increasing
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 1 1 abc:1.0\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "relabel -2 0 1\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "relabel 0 2 2\n",  // old == new
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 2\n"
      "relabel 0 0 1\n",  // fewer ops than declared
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 1 1 0:nan\n",  // non-finite feature values
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 1 2 0:1.0 3:inf\n",
      "gmpsvm_delta_v1\nbase_fingerprint 1\nnum_classes 3\nops 1\n"
      "add 1 1 0:-infinity\n",
      std::string("gmpsvm_delta_v1\n\x01\xff\x00junk", 22),
  };
  for (const auto& text : hostile) {
    auto result = ParseDelta(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << text << " -> " << result.status().ToString();
  }
}

TEST(DeltaParseTest, EveryTruncationFailsCleanlyOrParses) {
  auto base = ValueOrDie(MakeMulticlassBlobs(3, 10, 5, 2.5, 21));
  const std::string full = SerializeDelta(SampleDelta(base));
  for (size_t len = 0; len < full.size(); ++len) {
    auto result = ParseDelta(full.substr(0, len));
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsInvalidArgument())
          << "len=" << len << ": " << result.status().ToString();
    }
  }
}

TEST(DeltaIoTest, LoadMissingFileIsIoError) {
  auto result = LoadDelta("/nonexistent/dir/x.delta");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

}  // namespace
}  // namespace gmpsvm::online
