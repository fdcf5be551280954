// Tests for the shared spec-string utility (util/spec.hpp): option parsing
// edge cases — factored into one place and tested once for every consumer
// (SchedulerRegistry, WorkloadRegistry, CrashTimeLaw, FailureModel) — plus
// the generic SpecRegistry error contract across both registries and the
// locale-independence contract of the numeric parse/render helpers.
#include <gtest/gtest.h>

#include <clocale>
#include <locale>
#include <string>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/spec.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace ftsched {
namespace {

// ------------------------------------------------------------- SpecOptions

TEST(SpecOptions, EmptyAndBasicParsing) {
  EXPECT_TRUE(SpecOptions::parse("").empty());
  const SpecOptions o = SpecOptions::parse("eps=2,prio=bl");
  EXPECT_TRUE(o.has("eps"));
  EXPECT_TRUE(o.has("prio"));
  EXPECT_FALSE(o.has("seed"));
  EXPECT_EQ(o.get("eps"), "2");
  EXPECT_EQ(o.get("prio"), "bl");
  EXPECT_EQ(o.to_string(), "eps=2,prio=bl");
}

TEST(SpecOptions, MalformedInputsThrow) {
  EXPECT_THROW((void)SpecOptions::parse("eps"), InvalidArgument);     // no '='
  EXPECT_THROW((void)SpecOptions::parse("=2"), InvalidArgument);      // no key
  EXPECT_THROW((void)SpecOptions::parse("a=1,"), InvalidArgument);    // trail
  EXPECT_THROW((void)SpecOptions::parse("a=1,a=2"), InvalidArgument); // dup
  EXPECT_THROW((void)SpecOptions::parse("a=1,,b=2"), InvalidArgument);
  // An empty option quotes the whole option text, not an empty fragment.
  try {
    (void)SpecOptions::parse(",a=1");
    ADD_FAILURE() << "a leading comma must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("',a=1'"), std::string::npos)
        << e.what();
  }
}

TEST(SpecOptions, EmptyValueIsAllowedButMissingKeyThrows) {
  const SpecOptions o = SpecOptions::parse("file=");
  EXPECT_TRUE(o.has("file"));
  EXPECT_EQ(o.get("file"), "");
  EXPECT_THROW((void)o.get("absent"), InvalidArgument);
  EXPECT_EQ(o.get("absent", "fallback"), "fallback");
}

TEST(SpecOptions, NumericAccessorsValidate) {
  const SpecOptions o = SpecOptions::parse("n=12,x=1.5,neg=-3,bad=two,b=1");
  EXPECT_EQ(o.get_size("n", 0), 12u);
  EXPECT_EQ(o.get_u64("n", 0), 12u);
  EXPECT_EQ(o.get_size("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(o.get_double("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(o.get_double("neg", 0.0), -3.0);
  EXPECT_DOUBLE_EQ(o.get_double("absent", 2.5), 2.5);
  EXPECT_THROW((void)o.get_size("bad", 0), InvalidArgument);
  EXPECT_THROW((void)o.get_size("neg", 0), InvalidArgument);  // unsigned
  EXPECT_THROW((void)o.get_size("x", 0), InvalidArgument);    // trailing .5
  EXPECT_THROW((void)o.get_double("bad", 0.0), InvalidArgument);
  EXPECT_TRUE(o.get_bool("b", false));
  EXPECT_THROW((void)o.get_bool("n", false), InvalidArgument);  // 12
}

TEST(SpecOptions, SetDefaultDoesNotOverride) {
  SpecOptions o = SpecOptions::parse("eps=2");
  o.set_default("eps", "9");
  o.set_default("seed", "7");
  EXPECT_EQ(o.get("eps"), "2");
  EXPECT_EQ(o.get("seed"), "7");
  o.set("eps", "4");
  EXPECT_EQ(o.get("eps"), "4");
}

TEST(SpecSplit, SplitsAtFirstColonOnly) {
  std::string name;
  std::string options;
  split_spec_string("trace:file=a:b.txt", name, options);
  EXPECT_EQ(name, "trace");
  EXPECT_EQ(options, "file=a:b.txt");
  split_spec_string("ftsa", name, options);
  EXPECT_EQ(name, "ftsa");
  EXPECT_EQ(options, "");
}

// --------------------------------------- shared registry error contract

/// Both registries reject unknown names listing the alternatives, reject
/// unknown option keys listing the supported keys, and reject malformed
/// option strings — the same code path (SpecRegistry), asserted once per
/// consumer here so a regression in either wiring is caught.
template <typename Registry>
void expect_registry_error_contract(const Registry& registry,
                                    const std::string& known_name,
                                    const std::string& known_key) {
  try {
    (void)registry.create("no-such-entry");
    FAIL() << "expected InvalidArgument for unknown name";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-entry"), std::string::npos);
    EXPECT_NE(what.find(known_name), std::string::npos);  // alternatives
  }
  try {
    (void)registry.create(known_name + ":bogus=1");
    FAIL() << "expected InvalidArgument for unknown option";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find(known_key), std::string::npos);  // supported keys
  }
  EXPECT_THROW((void)registry.create(known_name + ":" + known_key),
               InvalidArgument);
  EXPECT_THROW((void)registry.create(known_name + ":=1"), InvalidArgument);
  EXPECT_THROW((void)registry.create(known_name + ":" + known_key + "=1," +
                                     known_key + "=2"),
               InvalidArgument);
}

TEST(SpecRegistry, SchedulerRegistryErrorContract) {
  expect_registry_error_contract(SchedulerRegistry::global(), "ftsa", "eps");
}

TEST(SpecRegistry, WorkloadRegistryErrorContract) {
  expect_registry_error_contract(WorkloadRegistry::global(), "paper", "tmin");
}

TEST(SpecRegistry, BadNumericValuesRejectedByBothRegistries) {
  EXPECT_THROW((void)SchedulerRegistry::global().create("ftsa:eps=two"),
               InvalidArgument);
  EXPECT_THROW((void)WorkloadRegistry::global().create("paper:tmin=ten"),
               InvalidArgument);
  EXPECT_THROW((void)WorkloadRegistry::global().create("layered:p=often"),
               InvalidArgument);
}

TEST(SpecRegistry, EmptySpecIsUnknownName) {
  EXPECT_THROW((void)SchedulerRegistry::global().create(""), InvalidArgument);
  EXPECT_THROW((void)WorkloadRegistry::global().create(""), InvalidArgument);
  EXPECT_THROW((void)WorkloadRegistry::global().create(":tmin=1"),
               InvalidArgument);
}

// ------------------------------------------------------------ CrashTimeLaw

TEST(CrashTimeLaw, ParsesAndRoundTrips) {
  for (const char* spec :
       {"t0", "frac:f=0.5", "frac:f=1.2", "uniform:hi=1", "exp:mean=0.25"}) {
    const CrashTimeLaw law = CrashTimeLaw::parse(spec);
    EXPECT_EQ(CrashTimeLaw::parse(law.to_string()).to_string(),
              law.to_string())
        << spec;
    EXPECT_FALSE(law.describe().empty());
  }
  EXPECT_EQ(CrashTimeLaw().to_string(), "t0");
  EXPECT_EQ(CrashTimeLaw::parse("frac").to_string(), "frac:f=0.5");
}

TEST(CrashTimeLaw, RejectsUnknownLawsAndOptions) {
  EXPECT_THROW((void)CrashTimeLaw::parse("lightning"), InvalidArgument);
  EXPECT_THROW((void)CrashTimeLaw::parse("t0:f=1"), InvalidArgument);
  EXPECT_THROW((void)CrashTimeLaw::parse("frac:hi=1"), InvalidArgument);
  EXPECT_THROW((void)CrashTimeLaw::parse("frac:f=-1"), InvalidArgument);
  EXPECT_THROW((void)CrashTimeLaw::parse("exp:mean=0"), InvalidArgument);
  EXPECT_THROW((void)CrashTimeLaw::parse("frac:f=fast"), InvalidArgument);
}

TEST(CrashTimeLaw, RejectsDegenerateParametersWithSpecStyleMessages) {
  // NaN/inf parameters would otherwise surface only as NaN crash times
  // deep inside a sweep; the parse must reject them like unknown keys —
  // naming the law, the option and the constraint.
  for (const char* spec : {"frac:f=-1", "frac:f=nan", "frac:f=inf",
                           "uniform:hi=-2", "uniform:hi=nan", "exp:mean=0",
                           "exp:mean=-0.5", "exp:mean=inf"}) {
    try {
      (void)CrashTimeLaw::parse(spec);
      FAIL() << "expected InvalidArgument for " << spec;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("crash law"), std::string::npos) << spec;
      EXPECT_NE(what.find("must be"), std::string::npos) << spec;
    }
  }
}

// ------------------------------------------------------ locale independence

/// Runs `body` under the de_DE.UTF-8 locale (',' radix) when the host has
/// it, restoring the global C and C++ locales afterwards.  Returns false
/// when the locale is unavailable (the caller skips).
template <typename Body>
bool with_german_locale(Body&& body) {
  const std::string old_c = std::setlocale(LC_ALL, nullptr);
  const std::locale old_cpp;
  bool available = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8"}) {
    try {
      // Sets the C++ global locale AND the C locale (std::stod reads the
      // latter) — exactly the environment the bug corrupted specs under.
      std::locale::global(std::locale(name));
      available = true;
      break;
    } catch (const std::runtime_error&) {
    }
  }
  if (available) body();
  std::locale::global(old_cpp);
  std::setlocale(LC_ALL, old_c.c_str());
  return available;
}

/// A comma-radix numpunct facet: lets the render-side guard run even on
/// hosts without the de_DE locale installed (stream-based rendering would
/// pick the facet up; to_chars must not).
struct CommaPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
};

TEST(SpecLocale, RenderIgnoresTheImbuedCppLocale) {
  const std::locale old_cpp;
  std::locale::global(std::locale(std::locale(), new CommaPunct));
  EXPECT_EQ(spec_detail::render_double(0.5), "0.5");
  EXPECT_EQ(spec_detail::render_double(-12.375), "-12.375");
  EXPECT_EQ(CrashTimeLaw::parse("frac:f=0.5").to_string(), "frac:f=0.5");
  EXPECT_EQ(FailureModel::parse("bernoulli:p=0.25").to_string(),
            "bernoulli:p=0.25");
  std::locale::global(old_cpp);
}

TEST(SpecLocale, NumericParsingIsLocaleIndependent) {
  const bool ran = with_german_locale([] {
    // Sanity: the locale really is comma-radix here (otherwise this test
    // silently stops guarding anything).
    ASSERT_EQ(std::localeconv()->decimal_point[0], ',');
    EXPECT_DOUBLE_EQ(spec_detail::parse_double("f", "0.5"), 0.5);
    EXPECT_DOUBLE_EQ(spec_detail::parse_double("f", "-1.25e2"), -125.0);
    EXPECT_THROW((void)spec_detail::parse_double("f", "0,5"),
                 InvalidArgument);
    EXPECT_EQ(spec_detail::render_double(0.5), "0.5");
    EXPECT_EQ(spec_detail::render_double(1234.75), "1234.75");
  });
  if (!ran) GTEST_SKIP() << "de_DE locale not installed on this host";
}

TEST(SpecLocale, CanonicalSpecsRoundTripUnderCommaRadix) {
  const bool ran = with_german_locale([] {
    // The full consumer chain: law/model specs parse, canonicalize and
    // re-parse identically whatever the host locale.
    for (const char* spec : {"frac:f=0.5", "uniform:hi=1.5", "exp:mean=0.25"}) {
      const CrashTimeLaw law = CrashTimeLaw::parse(spec);
      EXPECT_EQ(law.to_string(), spec);
      EXPECT_EQ(CrashTimeLaw::parse(law.to_string()).to_string(), spec);
    }
    for (const char* spec : {"bernoulli:p=0.1", "bernoulli:p=0.25,domain=4"}) {
      const FailureModel model = FailureModel::parse(spec);
      EXPECT_EQ(model.to_string(), spec);
    }
    // The shard protocol's hex-float pair is the other fingerprint
    // ingredient; it must stay exact too.
    for (double x : {0.2, -1.5, 1e-300, 3.14159}) {
      EXPECT_EQ(hex_to_double(double_to_hex(x)), x);
    }
  });
  if (!ran) GTEST_SKIP() << "de_DE locale not installed on this host";
}

TEST(CrashTimeLaw, SamplingContracts) {
  Rng rng(3);
  const auto before = rng;
  // t0 consumes no randomness (the legacy-stream guarantee) ...
  const std::vector<double> zeros = CrashTimeLaw().sample(rng, 4);
  EXPECT_EQ(zeros, std::vector<double>(4, 0.0));
  Rng copy = before;
  EXPECT_EQ(rng(), copy());
  // ... frac is deterministic, uniform/exp draw nonnegative times.
  const auto fracs = CrashTimeLaw::parse("frac:f=0.3").sample(rng, 3);
  EXPECT_EQ(fracs, std::vector<double>(3, 0.3));
  for (double t : CrashTimeLaw::parse("uniform:hi=2").sample(rng, 8)) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 2.0);
  }
  for (double t : CrashTimeLaw::parse("exp:mean=0.5").sample(rng, 8)) {
    EXPECT_GE(t, 0.0);
  }
}

}  // namespace
}  // namespace ftsched
