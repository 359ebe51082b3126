//! The process-wide metrics registry survives a metrics source whose
//! `collect` panics. A test binary of its own: the panicking source is
//! registered with the global registry, which every pool in the process
//! shares.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Weak};

use cilkm::obs::metrics::{global, MetricsCollector, MetricsSource};
use cilkm::runtime::Pool;

struct Exploding;

impl MetricsSource for Exploding {
    fn collect(&self, _out: &mut MetricsCollector) {
        panic!("collect boom");
    }
}

#[test]
fn a_panicking_metrics_source_leaves_later_pools_working() {
    let source: Arc<dyn MetricsSource> = Arc::new(Exploding);
    global().register(
        "exploding",
        Arc::downgrade(&source) as Weak<dyn MetricsSource>,
    );
    let caught = panic::catch_unwind(AssertUnwindSafe(|| global().snapshot()));
    assert!(caught.is_err(), "the source's panic reaches the caller");
    drop(source);

    // Pool construction registers with the same registry.
    let pool = Pool::new(1);
    assert_eq!(pool.run(|| 6 * 7), 42);
    assert!(global()
        .snapshot()
        .values
        .keys()
        .any(|k| k.starts_with("pool")));
}
