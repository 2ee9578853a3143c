//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset of proptest's API the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, range/tuple/[`Just`]/[`any`]
//! strategies, [`collection::vec`], the [`prop_oneof!`] union, the
//! [`proptest!`] test macro with optional `#![proptest_config(..)]`,
//! and the `prop_assert*` assertion macros.
//!
//! Differences from upstream: cases are drawn from a fixed per-test
//! seed (derived from the test name, so failures reproduce exactly) and
//! there is **no shrinking** — a failing case is reported as-is. The
//! default case count is 64.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Runner configuration (the subset the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property case (returned early by the `prop_assert*` macros).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// A generator of random values of one type.
///
/// Unlike upstream proptest there is no value tree or shrinking: a
/// strategy is simply a cloneable sampler.
pub trait Strategy: Clone {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps the produced value through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        let inner = self;
        BoxedStrategy(Rc::new(move |rng| inner.sample(rng)))
    }
}

/// A [`Strategy::prop_map`] adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;

    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut StdRng) -> V>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn sample(&self, rng: &mut StdRng) -> V {
        (self.0)(rng)
    }
}

/// A uniform choice between type-erased alternatives.
pub struct Union<V> {
    alternatives: Vec<BoxedStrategy<V>>,
}

// Manual impl: `derive` would demand `V: Clone`, but the alternatives
// are `Rc`-backed and clone regardless of `V`.
impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union { alternatives: self.alternatives.clone() }
    }
}

impl<V> Union<V> {
    /// Builds a union; used by [`prop_oneof!`].
    pub fn new(alternatives: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs at least one alternative");
        Union { alternatives }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut StdRng) -> V {
        let i = rng.random_range(0..self.alternatives.len());
        self.alternatives[i].sample(rng)
    }
}

/// The constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Strategy for "any value of `T`" (via the [`Arbitrary`] trait).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical "uniform over the whole domain" strategy.
pub trait Arbitrary {
    /// Draws one uniformly random value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.random()
            }
        }
    )*};
}
impl_arbitrary!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32);

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::RngExt;
    use std::ops::Range;

    /// A vector whose length is drawn from `len` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Derives a per-test deterministic seed from the test's name, so every
/// run draws the identical case sequence (failures reproduce exactly).
pub fn seed_for(name: &str) -> StdRng {
    // FNV-1a, stable across platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Declares property tests.
///
/// Supports the upstream form used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn my_property(x in 0u64..100, v in proptest::collection::vec(any::<bool>(), 0..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "property '{}' failed on case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// A union strategy choosing uniformly among the listed alternatives.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?}` == `{:?}`",
                        l, r
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?}` == `{:?}`: {}",
                        l,
                        r,
                        format!($($fmt)+)
                    )));
                }
            }
        }
    };
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?}` != `{:?}`",
                        l, r
                    )));
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in 0usize..=3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y <= 3);
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(0u8..4, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            for e in v {
                prop_assert!(e < 4);
            }
        }

        #[test]
        fn oneof_and_map_compose(
            v in prop_oneof![
                (0u64..10).prop_map(|x| x * 2),
                Just(1u64),
            ]
        ) {
            prop_assert!(v == 1 || (v % 2 == 0 && v < 20));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_is_respected(_x in 0u8..=255) {
            // Body runs exactly `cases` times; nothing to assert beyond
            // not panicking.
        }
    }

    #[test]
    fn seeding_is_stable() {
        let mut a = crate::seed_for("some::test");
        let mut b = crate::seed_for("some::test");
        assert_eq!(
            crate::Strategy::sample(&(0u64..1_000_000), &mut a),
            crate::Strategy::sample(&(0u64..1_000_000), &mut b)
        );
    }
}
