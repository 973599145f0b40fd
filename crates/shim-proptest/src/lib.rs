//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate reimplements the subset of proptest the test suite uses:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * strategies: integer ranges, [`any`](arbitrary::any), [`Just`](strategy::Just),
//!   tuples, [`collection::vec`], `prop_map`, `prop_filter`,
//!   `prop_flat_map`, [`prop_oneof!`], and boxed strategies.
//!
//! Differences from upstream: failing cases are **not shrunk** — the
//! failure report carries the deterministic case seed instead — and value
//! generation uses this crate's own deterministic stream. Case counts come
//! from `ProptestConfig::with_cases`, the `PROPTEST_CASES` environment
//! variable, or the default of 256.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the runner can report the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)*), l, r
                ),
            ));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr);) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(stringify!($name), &$cfg, |__pt_rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&$strategy, __pt_rng);)+
                let __pt_result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                __pt_result
            });
        }
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
}
