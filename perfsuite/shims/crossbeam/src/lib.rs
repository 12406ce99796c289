//! Offline stand-in for `crossbeam` 0.8: the library crates of this
//! repository declare the dependency and use it from tests only.
