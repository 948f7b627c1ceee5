//! The Saguaro reproduction's benchmark (see `README.md` beside this crate).

#![warn(missing_docs)]

pub mod aa;
pub mod cli;
pub mod host;
pub mod layers;
pub mod measure;
pub mod profile;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod stability;
pub mod workloads;
