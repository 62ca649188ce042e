//! # acdc-stats — measurement utilities for the AC/DC reproduction
//!
//! Collectors used across the workspace: percentiles (RTT/FCT
//! distributions), Jain's fairness index and simple time series. Also
//! hosts the [`time`] module with the nanosecond-resolution virtual-time
//! units every other crate shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod fairness;
pub mod series;
pub mod time;

pub use cdf::Distribution;
pub use fairness::jain_index;
pub use series::TimeSeries;
pub use time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
