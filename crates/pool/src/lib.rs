//! # soc-pool
//!
//! The solver workers behind `soc serve`: a [`Service`] of long-lived
//! threads draining a FIFO job queue, with drain and abort shutdown
//! paths and per-job trace-context propagation.
//!
//! The service exists for request concurrency, not speedup. Each solve
//! runs serially on one worker; the queue lets connection threads hand
//! work off and lets several tenants' requests run side by side, and
//! the time a job waits in the queue is distinct from the time it runs,
//! so overload and slow solves can be told apart.
//!
//! ```
//! use std::sync::mpsc;
//! use soc_pool::Service;
//!
//! let service = Service::new(2);
//! let (tx, rx) = mpsc::channel();
//! service.submit(move || tx.send(6 * 7).unwrap()).unwrap();
//! assert_eq!(rx.recv().unwrap(), 42);
//! service.shutdown_drain();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod service;

pub use service::{Rejected, Service};
