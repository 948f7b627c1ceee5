//! Blockchain ledgers and state for Saguaro.
//!
//! Height-1 (edge-server) domains execute transactions and maintain:
//!
//! * a **linear ledger** ([`linear::LinearLedger`]) — an append-only chain of
//!   committed transactions, periodically cut into [`block::Block`]s that are
//!   propagated up the hierarchy;
//! * the **blockchain state** ([`state::BlockchainState`]) — the key/value
//!   datastore produced by executing transactions (account balances in the
//!   micropayment application), with undo records so the optimistic protocol
//!   can roll back aborted transactions and their dependents.
//!
//! Height-2 and above domains maintain only a **summarized view**:
//!
//! * a **DAG ledger** ([`dag::DagLedger`]): a linear chain holding each
//!   transaction once, as first reported — the summary it forwards — whose
//!   record turns `Aborted` once any child reports, or the domain decides,
//!   an abort, and
//! * an **aggregate view** ([`abstraction`]) computed through the
//!   application-defined abstraction function λ applied to child state
//!   deltas — e.g. the total working hours per driver in the ridesharing
//!   application or total exchanged assets in micropayments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod block;
pub mod dag;
pub mod linear;
pub mod state;

pub use abstraction::{AbstractionFn, AggregateView, DeltaKey, StateDelta};
pub use block::{Block, BlockHeader, BlockId, CommittedTx, TxStatus};
pub use dag::DagLedger;
pub use linear::LinearLedger;
pub use state::{BlockchainState, UndoRecord};
