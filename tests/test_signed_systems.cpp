// The authenticated wire layer, end to end.
//
// Three layers of coverage, parameterized over every registry system whose
// schema carries `signed` fields (today: hotstuff, minbft — a future signed
// guest is picked up automatically):
//
//   * adapter properties — for every signed field of every message, a proxy
//     mutation must break verification at an honest receiver; every unsigned
//     field must stay silently mutable (the adapter must not over-sign);
//   * golden conformance — happy-path progression of a fleet is byte-compared
//     against tests/golden/<system>_progression.txt (regenerate with
//     TURRET_UPDATE_GOLDEN=1);
//   * search determinism — the same-seed weighted-greedy SearchResult,
//     TamperDetected accounting included, is byte-identical across --jobs
//     1/4 and 0 vs. 2 forked distributed workers, and finds at least one
//     attack on each system.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dist/coordinator.h"
#include "golden_lines.h"
#include "proxy/proxy.h"
#include "search/algorithms.h"
#include "search/executor.h"
#include "systems/registry.h"
#include "wire/message.h"
#include "wire/signed_adapter.h"

namespace turret {
namespace {

using search::Scenario;
using search::SearchResult;

std::vector<std::string> signed_system_names() {
  std::vector<std::string> names;
  for (const systems::SystemEntry& e : systems::system_registry())
    if (e.signed_wire) names.emplace_back(e.name);
  return names;
}

wire::Value random_value(wire::FieldType t, Rng& rng) {
  using wire::FieldType;
  using wire::Value;
  switch (t) {
    case FieldType::kBool:
      return Value::of_bool(rng.next_bool());
    case FieldType::kI8:
    case FieldType::kI16:
    case FieldType::kI32:
    case FieldType::kI64:
      return Value::of_signed(static_cast<std::int64_t>(
          rng.next_u64() % (wire::integer_max(t) / 2 + 1)));
    case FieldType::kU8:
    case FieldType::kU16:
    case FieldType::kU32:
    case FieldType::kU64:
      return Value::of_unsigned(t == FieldType::kU64
                                    ? rng.next_u64()
                                    : rng.next_u64() %
                                          (wire::integer_max(t) + 1));
    case FieldType::kF32:
      return Value::of_double(static_cast<float>(rng.next_double() * 100));
    case FieldType::kF64:
      return Value::of_double(rng.next_double() * 1e9);
    case FieldType::kBytes: {
      Bytes b(1 + rng.next_below(24));
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
      return Value::of_bytes(std::move(b));
    }
  }
  return Value();
}

wire::DecodedMessage random_instance(const wire::MessageSpec& spec, Rng& rng) {
  wire::DecodedMessage msg;
  msg.spec = &spec;
  for (const wire::FieldSpec& f : spec.fields)
    msg.values.push_back(random_value(f.type, rng));
  return msg;
}

/// Mutate field `fi` the way the proxy would, guaranteeing the encoding
/// actually changes (a lie that happens to re-produce the original value
/// would make the detection assertions vacuous).
Bytes mutated_encoding(const wire::Schema& schema, BytesView inner,
                       std::uint32_t fi, Rng& rng) {
  wire::DecodedMessage msg = wire::decode(schema, inner);
  const wire::FieldType type = msg.spec->fields[fi].type;
  if (type == wire::FieldType::kBytes) {
    Bytes b = msg.values[fi].as_bytes();
    b.push_back(0x5a);  // the proxy's codecs re-encode any length faithfully
    msg.values[fi] = wire::Value::of_bytes(std::move(b));
    const Bytes out = wire::encode(msg);
    EXPECT_NE(out, Bytes(inner.begin(), inner.end()));
    return out;
  }
  for (const proxy::LieStrategy strat :
       {proxy::LieStrategy::kMax, proxy::LieStrategy::kMin}) {
    wire::DecodedMessage lie = wire::decode(schema, inner);
    proxy::mutate_field(lie, fi, strat, 0, rng);
    Bytes out = wire::encode(lie);
    if (out != Bytes(inner.begin(), inner.end())) return out;
  }
  ADD_FAILURE() << msg.spec->name << " field " << fi
                << ": neither min nor max lie changed the encoding";
  return Bytes(inner.begin(), inner.end());
}

class SignedWireProperty : public ::testing::TestWithParam<std::string> {
 protected:
  const systems::SystemEntry& entry() {
    const systems::SystemEntry* e = systems::find_system(GetParam());
    EXPECT_NE(e, nullptr);
    return *e;
  }
};

TEST_P(SignedWireProperty, SealOpenRoundTripsEveryMessage) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  Rng rng(7);
  for (const wire::MessageSpec& spec : schema.messages()) {
    for (std::uint32_t sender = 0; sender < 5; ++sender) {
      const Bytes inner = wire::encode(random_instance(spec, rng));
      const Bytes sealed = adapter.seal(sender, inner);
      ASSERT_TRUE(wire::SignedAdapter::looks_sealed(sealed));
      const BytesView view = wire::SignedAdapter::inner_view(sealed);
      EXPECT_EQ(Bytes(view.begin(), view.end()), inner);
      const auto opened = adapter.open(sealed);
      ASSERT_TRUE(opened.has_value()) << spec.name;
      EXPECT_TRUE(opened->verified) << spec.name;
      EXPECT_EQ(opened->sender, sender);
      EXPECT_EQ(Bytes(opened->inner.begin(), opened->inner.end()), inner);
    }
  }
}

TEST_P(SignedWireProperty, EverySignedFieldMutationIsDetected) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  Rng rng(11);
  std::size_t signed_fields = 0;
  for (const wire::MessageSpec& spec : schema.messages()) {
    for (std::uint32_t fi = 0; fi < spec.fields.size(); ++fi) {
      if (!spec.fields[fi].is_signed) continue;
      ++signed_fields;
      EXPECT_TRUE(adapter.covers(spec.tag, fi))
          << spec.name << "." << spec.fields[fi].name;
      const Bytes inner = wire::encode(random_instance(spec, rng));
      const Bytes sealed = adapter.seal(/*sender=*/1, inner);
      const Bytes forged = wire::SignedAdapter::replace_inner(
          sealed, mutated_encoding(schema, inner, fi, rng));
      const auto opened = adapter.open(forged);
      ASSERT_TRUE(opened.has_value());
      EXPECT_FALSE(opened->verified)
          << spec.name << "." << spec.fields[fi].name
          << ": signed-field mutation survived verification — a silent "
             "state divergence the receiver would act on";
    }
  }
  EXPECT_GT(signed_fields, 0u) << "signed system declares no signed fields";
}

TEST_P(SignedWireProperty, EveryUnsignedFieldStaysSilentlyMutable) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  Rng rng(13);
  for (const wire::MessageSpec& spec : schema.messages()) {
    for (std::uint32_t fi = 0; fi < spec.fields.size(); ++fi) {
      if (spec.fields[fi].is_signed) continue;
      EXPECT_FALSE(adapter.covers(spec.tag, fi))
          << spec.name << "." << spec.fields[fi].name;
      const Bytes inner = wire::encode(random_instance(spec, rng));
      const Bytes sealed = adapter.seal(/*sender=*/1, inner);
      const Bytes forged_inner = mutated_encoding(schema, inner, fi, rng);
      const Bytes forged =
          wire::SignedAdapter::replace_inner(sealed, forged_inner);
      const auto opened = adapter.open(forged);
      ASSERT_TRUE(opened.has_value());
      EXPECT_TRUE(opened->verified)
          << spec.name << "." << spec.fields[fi].name
          << ": unsigned-field mutation tripped the MAC — the adapter "
             "over-signs and the classic lying catalogue is lost";
      EXPECT_EQ(Bytes(opened->inner.begin(), opened->inner.end()),
                forged_inner);
    }
  }
}

TEST_P(SignedWireProperty, ForgedSenderIdentityIsDetected) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  Rng rng(17);
  const Bytes inner = wire::encode(random_instance(schema.messages()[0], rng));
  Bytes sealed = adapter.seal(/*sender=*/2, inner);
  // The sender id rides in the trailer at [size - 4, size - 2).
  sealed[sealed.size() - 4] ^= 1;  // claim a different node
  const auto opened = adapter.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->sender, 3u);
  EXPECT_FALSE(opened->verified)
      << "a MAC must bind the sender identity, not just the payload";
}

TEST_P(SignedWireProperty, UnsealedBytesAreNotMistakenForSealed) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  Rng rng(19);
  const Bytes inner = wire::encode(random_instance(schema.messages()[0], rng));
  EXPECT_FALSE(wire::SignedAdapter::looks_sealed(inner));
  const BytesView view = wire::SignedAdapter::inner_view(inner);
  EXPECT_EQ(Bytes(view.begin(), view.end()), inner);
  EXPECT_FALSE(adapter.open(inner).has_value());
}

TEST_P(SignedWireProperty, KeysDifferPerNodeAndPerSeed) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter a(schema, 0xfeed), b(schema, 0xbeef);
  EXPECT_FALSE(a.key_of(0) == a.key_of(1));
  EXPECT_FALSE(a.key_of(0) == b.key_of(0));
  // Cross-adapter verification must fail: a message sealed under one key
  // seed is tampering from the point of view of a fleet keyed differently.
  Rng rng(23);
  const Bytes inner = wire::encode(random_instance(schema.messages()[0], rng));
  const auto opened = b.open(a.seal(0, inner));
  ASSERT_TRUE(opened.has_value());
  EXPECT_FALSE(opened->verified);
}

// ---------------------------------------------------------------------------
// The MAC against fixed answers. The adapter hashes the signed fields where
// they sit on the wire; `reference_mac` is the decode-based computation it
// replaced (decode every field into a Value, hash the signed ones), kept here
// verbatim as the specification. tests/golden/signed_mac_kat.json holds
// trailers that reference wrote, so a change to either side shows up.

Digest128 reference_mac(const wire::Schema& schema, std::uint64_t key_seed,
                        std::uint32_t sender, BytesView inner) {
  Hasher128 kh;
  kh.update("turret-signed-key-v1");
  kh.update_u64(key_seed);
  kh.update_u64(sender);
  const Digest128 key = kh.digest();

  Hasher128 h;
  h.update("turret-signed-mac-v1");
  h.update_digest(key);
  h.update_u64(sender);
  bool whole = true;
  if (inner.size() >= 2) {
    const wire::TypeTag tag = wire::peek_tag(inner);
    if (const wire::MessageSpec* spec = schema.by_tag(tag)) {
      try {
        const wire::DecodedMessage msg = wire::decode(schema, inner);
        whole = false;
        h.update_u64(tag);
        for (std::size_t i = 0; i < spec->fields.size(); ++i) {
          if (!spec->fields[i].is_signed) continue;
          const wire::Value& v = msg.values[i];
          h.update_u64(i);
          if (v.is_bool()) {
            h.update_u64(v.as_bool() ? 1 : 0);
          } else if (v.is_signed()) {
            h.update_i64(v.as_signed());
          } else if (v.is_unsigned()) {
            h.update_u64(v.as_unsigned());
          } else if (v.is_double()) {
            h.update_u64(std::bit_cast<std::uint64_t>(v.as_double()));
          } else {
            h.update_u64(v.as_bytes().size());
            h.update(BytesView(v.as_bytes()));
          }
        }
      } catch (const wire::WireError&) {
        whole = true;
      }
    }
  }
  if (whole) h.update(inner);
  h.update_digest(key);
  return h.digest();
}

/// `inner` followed by the trailer reference_mac implies.
Bytes reference_seal(const wire::Schema& schema, std::uint64_t key_seed,
                     std::uint32_t sender, BytesView inner) {
  const Digest128 m = reference_mac(schema, key_seed, sender, inner);
  Bytes out(inner.begin(), inner.end());
  for (const std::uint64_t word : {m.hi, m.lo})
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
  out.push_back(static_cast<std::uint8_t>(sender));
  out.push_back(static_cast<std::uint8_t>(sender >> 8));
  out.push_back(static_cast<std::uint8_t>(wire::SignedAdapter::kMagic));
  out.push_back(static_cast<std::uint8_t>(wire::SignedAdapter::kMagic >> 8));
  return out;
}

/// Every value of `spec`'s fields at the low (`high` = false) or high end of
/// its type: integer bounds, false/true, ±huge floats, empty or 300-byte
/// bytes fields.
wire::DecodedMessage boundary_instance(const wire::MessageSpec& spec,
                                       bool high) {
  using wire::FieldType;
  using wire::Value;
  wire::DecodedMessage msg;
  msg.spec = &spec;
  for (const wire::FieldSpec& f : spec.fields) {
    if (f.type == FieldType::kBool) {
      msg.values.push_back(Value::of_bool(high));
    } else if (wire::is_signed_integer(f.type)) {
      msg.values.push_back(Value::of_signed(
          high ? static_cast<std::int64_t>(wire::integer_max(f.type))
               : wire::integer_min(f.type)));
    } else if (wire::is_unsigned_integer(f.type)) {
      msg.values.push_back(
          Value::of_unsigned(high ? wire::integer_max(f.type) : 0));
    } else if (f.type == FieldType::kF32) {
      msg.values.push_back(Value::of_double(high ? 3.0e38 : -3.0e38));
    } else if (f.type == FieldType::kF64) {
      msg.values.push_back(Value::of_double(high ? 1.0e300 : -1.0e300));
    } else {
      msg.values.push_back(Value::of_bytes(high ? Bytes(300, 0xff) : Bytes{}));
    }
  }
  return msg;
}

TEST_P(SignedWireProperty, MacMatchesDecodeBasedReference) {
  const wire::Schema& schema = entry().schema();
  constexpr std::uint64_t kSeed = 0xfeed;
  const wire::SignedAdapter adapter(schema, kSeed);
  Rng rng(29);
  std::size_t checked = 0;
  const auto check = [&](BytesView inner, std::uint32_t sender,
                         const std::string& what) {
    ++checked;
    const Bytes sealed = adapter.seal(sender, inner);
    ASSERT_EQ(sealed, reference_seal(schema, kSeed, sender, inner))
        << what << " (" << inner.size() << " bytes, sender " << sender << ")";
    // The trailer carries the sender as a u16, and an inner message shorter
    // than its tag does not look sealed at all.
    const auto opened = adapter.open(sealed);
    if (inner.size() < 2) {
      EXPECT_FALSE(opened.has_value()) << what;
      return;
    }
    ASSERT_TRUE(opened.has_value()) << what;
    EXPECT_EQ(opened->verified, sender < 0x10000) << what;
  };
  for (const wire::MessageSpec& spec : schema.messages()) {
    const Bytes base = wire::encode(random_instance(spec, rng));
    const Bytes high = wire::encode(boundary_instance(spec, true));
    std::vector<Bytes> shapes{base, high,
                              wire::encode(boundary_instance(spec, false))};
    for (int i = 0; i < 16; ++i)
      shapes.push_back(wire::encode(random_instance(spec, rng)));
    for (std::uint32_t fi = 0; fi < spec.fields.size(); ++fi) {
      if (spec.fields[fi].type == wire::FieldType::kBytes) {
        // The proxy lies on numbers only; a bytes field still changes
        // length and content when a guest's own codec misbehaves.
        for (const bool empty : {true, false}) {
          wire::DecodedMessage lie = wire::decode(schema, base);
          Bytes b = empty ? Bytes{} : lie.values[fi].as_bytes();
          if (!empty) b.push_back(0x5a);
          lie.values[fi] = wire::Value::of_bytes(std::move(b));
          shapes.push_back(wire::encode(lie));
        }
        continue;
      }
      for (const proxy::LieStrategy strat :
           {proxy::LieStrategy::kMin, proxy::LieStrategy::kMax,
            proxy::LieStrategy::kRandom}) {
        wire::DecodedMessage lie = wire::decode(schema, base);
        proxy::mutate_field(lie, fi, strat, 0, rng);
        shapes.push_back(wire::encode(lie));
      }
    }
    for (const Bytes& inner : shapes) {
      for (const std::uint32_t sender : {0u, 1u, 2u, 70u, 65537u})
        check(inner, sender, spec.name);
      Bytes longer = inner;
      longer.push_back(0x5a);
      check(longer, 3, spec.name + " plus one byte");
      Bytes retagged = inner;
      retagged[0] = retagged[1] = 0xff;
      check(retagged, 3, spec.name + " unknown tag");
    }
    for (const Bytes& inner : {base, high})
      for (std::size_t len = 0; len < inner.size(); ++len)
        check(BytesView(inner).first(len), 1,
              spec.name + " truncated at " + std::to_string(len));
  }
  EXPECT_GT(checked, 1000u);
}

/// What open() must return for `sealed`, derived from reference_mac alone.
struct ReferenceOpen {
  bool sealed = false;  // false: open() returns nullopt
  std::uint32_t sender = 0;
  bool verified = false;
  Bytes inner;
};

ReferenceOpen reference_open(const wire::Schema& schema,
                             std::uint64_t key_seed, BytesView sealed) {
  constexpr std::size_t kTrailer = wire::SignedAdapter::kTrailerSize;
  ReferenceOpen r;
  if (sealed.size() < kTrailer + 2) return r;
  const std::uint8_t* t = sealed.data() + sealed.size() - kTrailer;
  if ((t[18] | t[19] << 8) != wire::SignedAdapter::kMagic) return r;
  r.sealed = true;
  r.sender = static_cast<std::uint32_t>(t[16] | t[17] << 8);
  r.inner.assign(sealed.begin(), sealed.end() - kTrailer);
  Digest128 stored;
  for (int i = 7; i >= 0; --i) {
    stored.hi = stored.hi << 8 | t[i];
    stored.lo = stored.lo << 8 | t[8 + i];
  }
  r.verified = reference_mac(schema, key_seed, r.sender, r.inner) == stored;
  return r;
}

// open() answers from a per-thread memo of bytes it already saw verify. A
// seeded sequence interleaves everything that could make a remembered answer
// wrong, and every open() must still agree with the memo-free reference.
TEST_P(SignedWireProperty, OpenMatchesAMemoFreeReference) {
  const wire::Schema& schema = entry().schema();
  Rng rng(37);
  // Two live adapters with different seeds on this thread; either may be
  // destroyed and rebuilt in place (so at the same address) under a new seed.
  std::array<std::uint64_t, 2> seeds{0xfeed, 0xbeef};
  std::array<std::optional<wire::SignedAdapter>, 2> adapters;
  for (std::size_t i = 0; i < 2; ++i) adapters[i].emplace(schema, seeds[i]);
  std::vector<Bytes> recent;  // earlier buffers, reopened at random
  std::size_t verified = 0, rejected = 0, oversize = 0;

  // Opens twice, so the second open meets whatever the first remembered.
  const auto check_open = [&](const Bytes& sealed, std::size_t which,
                              const std::string& what) {
    const ReferenceOpen want = reference_open(schema, seeds[which], sealed);
    for (int round = 0; round < 2; ++round) {
      const auto got = adapters[which]->open(sealed);
      ASSERT_EQ(got.has_value(), want.sealed) << what;
      if (!got) return;
      EXPECT_EQ(got->sender, want.sender) << what;
      EXPECT_EQ(got->verified, want.verified)
          << what << ", opened by adapter " << which << ", round " << round;
      EXPECT_EQ(Bytes(got->inner.begin(), got->inner.end()), want.inner)
          << what;
    }
    ++(want.verified ? verified : rejected);
  };
  const auto fields_where = [](const wire::MessageSpec& spec, bool is_signed) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t fi = 0; fi < spec.fields.size(); ++fi)
      if (spec.fields[fi].is_signed == is_signed) out.push_back(fi);
    return out;
  };

  for (int step = 0; step < 1500; ++step) {
    const std::size_t a = rng.next_below(2);  // seals
    const std::size_t b = rng.next_below(4) == 0 ? 1 - a : a;  // opens
    const wire::MessageSpec& spec =
        schema.messages()[rng.next_below(schema.messages().size())];
    const auto sender = static_cast<std::uint32_t>(rng.next_below(8));
    const Bytes inner = wire::encode(random_instance(spec, rng));
    Bytes sealed = rng.next_bool() ? adapters[a]->seal(sender, inner)
                                   : adapters[a]->seal(sender, Bytes(inner));
    const std::string what = spec.name + " step " + std::to_string(step);
    switch (rng.next_below(8)) {
      case 0:
        check_open(sealed, b, "honest " + what);
        break;
      case 1:
      case 2: {
        // A lie replays the original's trailer, so it lands in the slot the
        // original's verification just filled.
        check_open(sealed, a, "original " + what);
        const bool on_signed = rng.next_bool();
        const std::vector<std::uint32_t> fields = fields_where(spec, on_signed);
        if (fields.empty()) break;
        const std::uint32_t fi = fields[rng.next_below(fields.size())];
        sealed = wire::SignedAdapter::replace_inner(
            sealed, mutated_encoding(schema, inner, fi, rng));
        check_open(sealed, a,
                   (on_signed ? "signed lie " : "unsigned lie ") + what);
        break;
      }
      case 3:
        check_open(sealed, a, "original " + what);
        sealed[sealed.size() - 4] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
        check_open(sealed, a, "forged sender " + what);
        break;
      case 4: {
        Bytes odd = inner;
        if (rng.next_bool()) {
          odd.resize(rng.next_below(odd.size()));
        } else {
          odd.push_back(0x5a);
        }
        check_open(adapters[a]->seal(sender, odd), b, "odd inner " + what);
        sealed = wire::SignedAdapter::replace_inner(sealed, odd);
        check_open(sealed, a, "odd inner under the original trailer " + what);
        break;
      }
      case 5:
        sealed = adapters[a]->seal(65537, inner);
        check_open(sealed, b, "sender 65537 " + what);
        break;
      case 6:
        sealed = adapters[a]->seal(sender,
                                   wire::encode(boundary_instance(spec, true)));
        oversize += sealed.size() > 232;
        check_open(sealed, b, "boundary instance " + what);
        break;
      case 7: {
        const std::size_t k = rng.next_below(2);
        adapters[k].reset();
        seeds[k] = rng.next_u64();
        adapters[k].emplace(schema, seeds[k]);
        check_open(sealed, a, "after a rebuild " + what);
        break;
      }
    }
    if (!recent.empty())
      check_open(recent[rng.next_below(recent.size())], rng.next_below(2),
                 "reopened at " + what);
    if (recent.size() < 32) {
      recent.push_back(std::move(sealed));
    } else {
      recent[rng.next_below(recent.size())] = std::move(sealed);
    }
  }
  EXPECT_GT(verified, 500u);
  EXPECT_GT(rejected, 500u);
  EXPECT_GT(oversize, 0u) << "no sealed message outgrew a memo slot";
}

TEST_P(SignedWireProperty, SealedOnOneThreadVerifiesOnAnother) {
  const wire::Schema& schema = entry().schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  Rng rng(41);
  std::vector<Bytes> sealed;
  for (const wire::MessageSpec& spec : schema.messages())
    for (std::uint32_t sender = 0; sender < 4; ++sender)
      sealed.push_back(
          adapter.seal(sender, wire::encode(random_instance(spec, rng))));
  std::size_t verified = 0, forged_verified = 0;
  std::thread([&] {
    for (const Bytes& s : sealed) {
      for (int round = 0; round < 2; ++round) {
        const auto opened = adapter.open(s);
        verified += opened.has_value() && opened->verified;
      }
      Bytes forged = s;
      forged[forged.size() - 4] ^= 1;
      const auto opened = adapter.open(forged);
      forged_verified += opened.has_value() && opened->verified;
    }
  }).join();
  EXPECT_EQ(verified, 2 * sealed.size());
  EXPECT_EQ(forged_verified, 0u);
}

/// The KAT shapes of one honest message: (label, inner bytes).
std::vector<std::pair<std::string, Bytes>> kat_shapes(
    const wire::Schema& schema, const wire::MessageSpec& spec, Rng& rng) {
  const Bytes honest = wire::encode(random_instance(spec, rng));
  std::vector<std::pair<std::string, Bytes>> shapes{{"honest", honest}};
  const auto first_field = [&](bool is_signed) -> std::optional<std::uint32_t> {
    for (std::uint32_t fi = 0; fi < spec.fields.size(); ++fi)
      if (spec.fields[fi].is_signed == is_signed) return fi;
    return std::nullopt;
  };
  if (const auto fi = first_field(true))
    shapes.emplace_back("signed-lie",
                        mutated_encoding(schema, honest, *fi, rng));
  if (const auto fi = first_field(false))
    shapes.emplace_back("unsigned-lie",
                        mutated_encoding(schema, honest, *fi, rng));
  // Cut inside the first bytes field's content (after its length prefix),
  // or off the last scalar when the message has no bytes field.
  std::size_t offset = 2;
  std::optional<std::size_t> cut;
  for (const wire::FieldSpec& f : spec.fields) {
    if (f.type == wire::FieldType::kBytes) {
      std::uint32_t len = 0;
      std::memcpy(&len, honest.data() + offset, sizeof len);
      cut = offset + 4 + len / 2;
      break;
    }
    offset += wire::scalar_size(f.type);
  }
  const auto kept = static_cast<std::ptrdiff_t>(cut ? *cut : honest.size() - 1);
  shapes.emplace_back(cut ? "truncated-bytes" : "truncated-scalar",
                      Bytes(honest.begin(), honest.begin() + kept));
  Bytes trailing = honest;
  trailing.push_back(0x5a);
  shapes.emplace_back("trailing-byte", trailing);
  Bytes unknown = honest;
  unknown[0] = unknown[1] = 0xff;
  shapes.emplace_back("unknown-tag", unknown);
  shapes.emplace_back("one-byte", Bytes{honest[0]});
  return shapes;
}

constexpr char kKatFile[] = "signed_mac_kat.json";

std::string kat_key(const std::string& system) {
  return "\"system\":\"" + system + "\"";
}

/// One line per (message type, shape): the inner bytes and the sealed
/// trailer for senders 0, the fleet's last node and 70.
std::vector<std::string> kat_lines(const std::string& system) {
  const systems::SystemEntry* e = systems::find_system(system);
  EXPECT_NE(e, nullptr);
  const wire::Schema& schema = e->schema();
  const wire::SignedAdapter adapter(schema, 0xfeed);
  const std::uint32_t last = e->make({}).testbed.net.nodes - 1;
  Rng rng(31);
  std::vector<std::string> lines;
  for (const wire::MessageSpec& spec : schema.messages()) {
    for (const auto& [shape, inner] : kat_shapes(schema, spec, rng)) {
      std::string line = "{" + kat_key(system) + ",\"message\":\"" +
                         spec.name + "\",\"shape\":\"" + shape +
                         "\",\"inner\":\"" + to_hex(inner) +
                         "\",\"trailers\":{";
      bool first = true;
      for (const std::uint32_t sender : {0u, last, 70u}) {
        const Bytes sealed = adapter.seal(sender, inner);
        const BytesView trailer =
            BytesView(sealed).last(wire::SignedAdapter::kTrailerSize);
        line += std::string(first ? "" : ",") + "\"" +
                std::to_string(sender) + "\":\"" + to_hex(trailer) + "\"";
        first = false;
      }
      lines.push_back(line + "}}");
    }
  }
  return lines;
}

TEST_P(SignedWireProperty, MacMatchesKnownAnswers) {
  if (golden::updating()) {
    std::vector<std::string> all;
    for (const std::string& name : signed_system_names())
      for (std::string& line : kat_lines(name)) all.push_back(std::move(line));
    golden::write_lines(kKatFile, all);
    GTEST_SKIP() << "golden file regenerated: " << golden::path_of(kKatFile);
  }
  EXPECT_EQ(golden::joined(kat_lines(GetParam())),
            golden::joined(golden::lines_with(kKatFile, kat_key(GetParam()))))
      << GetParam() << ": a sealed trailer changed";
}

INSTANTIATE_TEST_SUITE_P(SignedSystems, SignedWireProperty,
                         ::testing::ValuesIn(signed_system_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Golden conformance: the happy-path progression of each signed fleet,
// sampled once per second, must match tests/golden/<system>_progression.txt
// byte-for-byte. Any change to guest logic, the adapter, or the emulator
// that shifts commit timing shows up as a diff here.

std::string progression_trace(const std::string& name) {
  const systems::SystemEntry* entry = systems::find_system(name);
  EXPECT_NE(entry, nullptr);
  const Scenario sc = entry->make({});
  auto w = search::make_scenario_world(sc);
  w.testbed->start();
  std::ostringstream out;
  out << "system=" << name << " nodes=" << sc.testbed.net.nodes
      << " signed=" << (sc.signed_adapter ? 1 : 0) << "\n";
  for (Time t = kSecond; t <= 10 * kSecond; t += kSecond) {
    w.testbed->run_until(t);
    out << "t=" << t / kSecond << "s"
        << " updates=" << w.testbed->metrics().total("updates", 0, t)
        << " executed=" << w.testbed->metrics().total("executed", 0, t)
        << " tamper="
        << w.testbed->metrics().total(search::kTamperMetric, 0, t) << "\n";
  }
  return out.str();
}

void compare_to_golden(const std::string& got, const std::string& file) {
  const std::string path = std::string(TURRET_GOLDEN_DIR) + "/" + file;
  if (std::getenv("TURRET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; run with TURRET_UPDATE_GOLDEN=1 to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(got, buf.str())
      << "progression changed; if intentional, regenerate with "
         "TURRET_UPDATE_GOLDEN=1";
}

class SignedSystemGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SignedSystemGolden, HappyPathProgressionMatchesGoldenFile) {
  compare_to_golden(progression_trace(GetParam()),
                    GetParam() + "_progression.txt");
}

INSTANTIATE_TEST_SUITE_P(SignedSystems, SignedSystemGolden,
                         ::testing::ValuesIn(signed_system_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Search determinism on the signed systems. A focus schema keeps the action
// space (and with it the wall-clock cost of a full search) small, exactly as
// test_dist.cpp does for PBFT; the signed adapter still MACs against the
// full schema, so signed-field lies on the focus messages are detected.

constexpr char kHotstuffFocusSchema[] = R"(
protocol hotstuff;
message Vote = 3 {
  signed u32   view;
  signed u64   height;
  signed bytes digest;
  u32   replica;
}
message Reply = 5 {
  u32   view;
  u64   timestamp;
  u32   client;
  u32   replica;
}
)";

constexpr char kMinbftFocusSchema[] = R"(
protocol minbft;
message Prepare = 2 {
  signed u32   view;
  signed u64   seq;
  signed u64   ui_counter;
  u32   primary;
  u64   timestamp;
  u32   client;
  bytes payload;
}
message Reply = 4 {
  u32   view;
  u64   timestamp;
  u32   client;
  u32   replica;
}
)";

const wire::Schema& focus_schema_for(const std::string& name) {
  static const wire::Schema hotstuff = wire::parse_schema(kHotstuffFocusSchema);
  static const wire::Schema minbft = wire::parse_schema(kMinbftFocusSchema);
  return name == "hotstuff" ? hotstuff : minbft;
}

Scenario signed_search_scenario(const std::string& name) {
  const systems::SystemEntry* entry = systems::find_system(name);
  EXPECT_NE(entry, nullptr);
  Scenario sc = entry->make({});
  sc.schema = &focus_schema_for(name);
  sc.warmup = 2 * kSecond;
  sc.duration = 8 * kSecond;
  sc.window = 2 * kSecond;
  sc.actions.drop_probabilities = {1.0};
  sc.actions.delays = {kSecond};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  return sc;
}

class SignedSystemSearch : public ::testing::TestWithParam<std::string> {};

TEST_P(SignedSystemSearch, FindsAttacksAndCountsTampering) {
  const Scenario sc = signed_search_scenario(GetParam());
  const SearchResult res = search::weighted_greedy_search(sc);
  ASSERT_FALSE(res.attacks.empty()) << GetParam();
  std::uint64_t tampered = 0;
  bool signed_lie_attacked = false;
  for (const search::AttackReport& a : res.attacks) {
    tampered += a.tamper_detected;
    signed_lie_attacked =
        signed_lie_attacked ||
        (a.action.kind == proxy::ActionKind::kLie && a.action.field_signed);
  }
  EXPECT_GT(tampered, 0u)
      << GetParam()
      << ": no attack surfaced TamperDetected observations — the signed "
         "adapter's detections are not reaching the search layer";
  EXPECT_TRUE(signed_lie_attacked)
      << GetParam() << ": no signed-field lie classified as an attack";
  // The JSON result (what the golden determinism suite compares) must carry
  // the accounting.
  EXPECT_NE(res.to_json().find("\"tamper_detected\""), std::string::npos);
}

TEST_P(SignedSystemSearch, SearchResultMatchesGoldenFile) {
  const Scenario sc = signed_search_scenario(GetParam());
  set_default_jobs(1);
  const SearchResult res = search::weighted_greedy_search(sc);
  set_default_jobs(0);
  compare_to_golden(res.to_json(), GetParam() + "_search.json");
}

TEST_P(SignedSystemSearch, ByteIdenticalAcrossJobs) {
  const Scenario sc = signed_search_scenario(GetParam());
  set_default_jobs(1);
  const std::string ref = search::weighted_greedy_search(sc).to_json();
  set_default_jobs(4);
  const std::string jobs4 = search::weighted_greedy_search(sc).to_json();
  set_default_jobs(0);
  EXPECT_EQ(jobs4, ref) << GetParam() << ": --jobs 1 vs 4 diverged";
}

TEST_P(SignedSystemSearch, ByteIdenticalAcrossForkedWorkers) {
  const Scenario sc = signed_search_scenario(GetParam());
  const std::string ref = search::weighted_greedy_search(sc).to_json();

  dist::Coordinator coord(sc, {});
  dist::WorkerOptions wopt;
  wopt.seed = 7;
  coord.spawn_workers(2, wopt);
  ASSERT_TRUE(coord.wait_for_workers(2, 15'000'000'000));
  const SearchResult res =
      search::weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  coord.shutdown();
  EXPECT_EQ(res.to_json(), ref)
      << GetParam() << ": 0 vs 2 distributed workers diverged";
}

INSTANTIATE_TEST_SUITE_P(SignedSystems, SignedSystemSearch,
                         ::testing::ValuesIn(signed_system_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace turret
