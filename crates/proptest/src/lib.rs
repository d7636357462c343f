//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace
//! vendors the subset of the proptest API its property tests use:
//! the [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`,
//! range and tuple strategies, [`Just`](strategy::Just),
//! [`prop_oneof!`], [`collection::vec`], [`sample::select`] /
//! [`sample::Index`], [`any`], and the [`proptest!`] /
//! `prop_assert*` / [`prop_assume!`] macros.
//!
//! Differences from upstream proptest, deliberately accepted:
//! * no shrinking — a failing case reports the case number and message
//!   only;
//! * generation is deterministic per test body (fixed seed mixed with
//!   the case index), so failures reproduce exactly on re-run;
//! * `PROPTEST_CASES` overrides the default case count (256).

use std::marker::PhantomData;

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Deterministic RNG handed to strategies.
    pub struct TestRng(StdRng);

    impl TestRng {
        pub fn for_case(test_seed: u64, case: u64) -> TestRng {
            // Distinct, reproducible stream per (test, case).
            TestRng(StdRng::seed_from_u64(
                test_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure: the property is falsified.
        Fail(String),
        /// `prop_assume!` rejected the inputs; try another case.
        Reject(String),
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// Runner configuration; only `cases` is meaningful in this shim.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    /// Drives one `proptest!`-generated test body. Called by the macro
    /// expansion; not public API of upstream proptest.
    pub fn run_cases(
        config: &ProptestConfig,
        name: &str,
        mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let test_seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let mut executed = 0u32;
        let mut attempts = 0u64;
        let max_attempts = config.cases as u64 * 20 + 64;
        while executed < config.cases && attempts < max_attempts {
            let mut rng = TestRng::for_case(test_seed, attempts);
            attempts += 1;
            match body(&mut rng) {
                Ok(()) => executed += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed at case {attempts}: {msg}")
                }
            }
        }
        assert!(
            executed > 0,
            "proptest '{name}': every generated case was rejected"
        );
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Object-safe adapter so heterogeneous strategies over one value
    /// type can share a vtable (used by `prop_oneof!`).
    pub trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    pub type BoxedStrategy<V> = Box<dyn DynStrategy<V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.as_ref().generate_dyn(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.source.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = (rng.next_u64() % self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    /// Integer / float types usable directly as range strategies.
    pub trait RangeValue: Sized {
        fn in_range(rng: &mut TestRng, low: Self, high_excl: Self) -> Self;
        fn in_range_incl(rng: &mut TestRng, low: Self, high: Self) -> Self;
    }

    macro_rules! impl_range_value_int {
        ($($t:ty),*) => {$(
            impl RangeValue for $t {
                fn in_range(rng: &mut TestRng, low: Self, high_excl: Self) -> Self {
                    assert!(low < high_excl, "empty range strategy");
                    let span = (high_excl as i128 - low as i128) as u128;
                    (low as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
                fn in_range_incl(rng: &mut TestRng, low: Self, high: Self) -> Self {
                    assert!(low <= high, "empty range strategy");
                    let span = (high as i128 - low as i128) as u128 + 1;
                    (low as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    impl_range_value_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl RangeValue for f64 {
        fn in_range(rng: &mut TestRng, low: Self, high_excl: Self) -> Self {
            assert!(low < high_excl, "empty range strategy");
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            low + unit * (high_excl - low)
        }
        fn in_range_incl(rng: &mut TestRng, low: Self, high: Self) -> Self {
            Self::in_range(rng, low, high + f64::EPSILON * high.abs().max(1.0))
        }
    }

    impl<T: RangeValue + Copy> Strategy for Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::in_range(rng, self.start, self.end)
        }
    }

    impl<T: RangeValue + Copy> Strategy for RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::in_range_incl(rng, *self.start(), *self.end())
        }
    }

    /// A `Vec` of strategies yields a `Vec` of one value from each —
    /// matches upstream proptest's element-wise `Vec<S>` strategy.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    macro_rules! impl_strategy_tuple {
        ($(($($s:ident $v:ident),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        )*};
    }
    impl_strategy_tuple! {
        (S1 a);
        (S1 a, S2 b);
        (S1 a, S2 b, S3 c);
        (S1 a, S2 b, S3 c, S4 d);
        (S1 a, S2 b, S3 c, S4 d, S5 e);
        (S1 a, S2 b, S3 c, S4 d, S5 e, S6 f);
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy, via [`super::any`].
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct Any<A>(pub(crate) PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary_value(rng)
        }
    }
}

/// The canonical strategy for `A`'s whole domain.
pub fn any<A: arbitrary::Arbitrary>() -> arbitrary::Any<A> {
    arbitrary::Any(PhantomData)
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec`]: an exact length or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        low: usize,
        high_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                low: n,
                high_incl: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                low: r.start,
                high_incl: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                low: *r.start(),
                high_incl: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec` — a vector of values from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.high_incl - self.size.low + 1) as u64;
            let len = self.size.low + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::arbitrary::Arbitrary;
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// An opaque index resolvable against any non-empty collection.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    pub struct Select<T: Clone>(Vec<T>);

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty list");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[i].clone()
        }
    }
}

pub mod prelude {
    pub use super::any;
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::{ProptestConfig, TestCaseError};
    pub use super::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` namespace (`prop::collection::vec`,
    /// `prop::sample::select`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strat = ($($strat,)+);
            $crate::test_runner::run_cases(&config, stringify!($name), |rng| {
                let ($($pat,)+) = $crate::strategy::Strategy::generate(&strat, rng);
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    (($cfg:expr)) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i16..=5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn tuples_and_maps_compose(v in (0u8..4, 0u8..4).prop_map(|(a, b)| a + b)) {
            prop_assert!(v <= 6);
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in prop::collection::vec(any::<u8>(), 2..5)
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn oneof_selects_only_given_arms(
            v in prop_oneof![Just(1u32), Just(2u32), 10u32..12]
        ) {
            prop_assert!(v == 1 || v == 2 || v == 10 || v == 11);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u8..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn sample_index_resolves(ix in any::<prop::sample::Index>()) {
            let i = ix.index(7);
            prop_assert!(i < 7);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in any::<u64>()) {
            let _ = x;
        }
    }

    #[test]
    fn flat_map_feeds_dependent_strategy() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (1usize..5).prop_flat_map(|n| crate::collection::vec(0u8..10, n));
        let mut rng = TestRng::for_case(1, 1);
        for _ in 0..32 {
            let v = strat.generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 5);
        }
    }
}
