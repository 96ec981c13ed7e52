//! The scaffold both shared-nothing captures stand on — [`crate::deploy`]'s
//! TPC-C partitions and [`crate::tpch::dist`]'s TPC-H fragments: engine
//! instances built into private address windows, and one trace bundle
//! per instance.

use std::sync::Arc;

use dbcmp_engine::Database;
use dbcmp_trace::{AddressSpace, AddressSpaceError, ThreadTrace, TraceBundle};

use crate::capture::par_map_ordered;

/// Reserve `n` instances' [`AddressSpace::partition`] windows, then build
/// instance `p` into window `p` on up to `workers` threads. Returns the
/// windows and the builds, both in instance order.
///
/// Every window is reserved before any build runs, so a capacity or range
/// error surfaces here, typed, at the capture boundary instead of as an
/// aliasing bug deep in replay. Each build touches only its own window
/// and draws its own rng stream, so the builds are the same at every
/// worker count.
pub(crate) fn build_instances<T: Send>(
    n: usize,
    workers: usize,
    build: impl Fn(usize, Arc<AddressSpace>) -> T + Sync,
) -> Result<(Vec<Arc<AddressSpace>>, Vec<T>), AddressSpaceError> {
    let spaces: Vec<Arc<AddressSpace>> = (0..n)
        .map(|p| AddressSpace::partition(p).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let built = par_map_ordered(spaces.clone(), workers, build);
    Ok((spaces, built))
}

/// One bundle per instance of `dbs`, in instance order: the traces of the
/// clients homed there in client order, then the instance's service trace
/// when its driver hands one in. `clients` yields each client's
/// `(home instance, trace)` in client order; `service` yields one entry
/// per instance.
pub(crate) fn bundle_instances<'a>(
    dbs: impl IntoIterator<Item = &'a Database>,
    clients: impl IntoIterator<Item = (usize, ThreadTrace)>,
    service: impl IntoIterator<Item = Option<ThreadTrace>>,
) -> Vec<TraceBundle> {
    let dbs: Vec<&Database> = dbs.into_iter().collect();
    let mut threads: Vec<Vec<ThreadTrace>> = Vec::new();
    threads.resize_with(dbs.len(), Vec::new);
    for (home, trace) in clients {
        threads[home].push(trace);
    }
    for (homed, trace) in threads.iter_mut().zip(service) {
        homed.extend(trace);
    }
    dbs.into_iter()
        .zip(threads)
        .map(|(db, t)| TraceBundle::new(db.regions().clone(), t))
        .collect()
}
