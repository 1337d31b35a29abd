//! Data model of the SES problem: events, intervals, users (interest and
//! activity), competing events, and the immutable [`Instance`] that ties
//! them together.

mod activity;
mod compressed;
mod event;
mod instance;
mod interest;
mod interval;

pub use activity::ActivityMatrix;
pub use compressed::{
    CompressedInterest, CompressedInterestBuilder, StorageKind, COMPRESSED_BLOCK,
};
pub use event::{CompetingEvent, Event};
pub use instance::{running_example, Instance, InstanceBuilder};
pub(crate) use interest::user_keep_mask;
pub use interest::{DenseInterest, InterestMatrix, SparseInterest, SparseInterestBuilder};
pub use interval::Interval;
