//! Violating fixture: a marked `mod.rs` puts its whole directory on the
//! data plane, as its attribute covers the submodules.

#![cfg_attr(not(test), deny(clippy::panic))]

mod hop;
