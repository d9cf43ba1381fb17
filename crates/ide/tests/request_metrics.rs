//! Request counters and per-method latency histograms of the EVP
//! server. They live in the process-global metrics registry, so these
//! tests have their own binary and run one at a time: no other test
//! calls `EvpServer::handle` between their readings, and the deltas are
//! exact.

use ev_ide::rpc::{codes, Request};
use ev_ide::EvpServer;
use ev_json::Value;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn requests_bump_counters_and_per_method_histograms() {
    let _serial = serial();
    let server = EvpServer::new();
    let requests_before = ev_trace::counter_value("ide.requests");
    let errors_before = ev_trace::counter_value("ide.errors");
    let initialize = ev_trace::histogram("ide.latency.initialize");
    let unknown = ev_trace::histogram("ide.latency.unknown");
    let (initialize_before, unknown_before) = (initialize.count(), unknown.count());
    server
        .handle(&Request::new(1, "initialize", Value::Null))
        .unwrap();
    for (id, method) in [(2, "bogus/method"), (3, "another/unknown")] {
        let bad = server
            .handle(&Request::new(id, method, Value::Null))
            .unwrap();
        assert!(bad.outcome.is_err());
    }
    assert_eq!(ev_trace::counter_value("ide.requests") - requests_before, 3);
    assert_eq!(ev_trace::counter_value("ide.errors") - errors_before, 2);
    assert_eq!(initialize.count() - initialize_before, 1);
    // Unknown methods pool into one histogram instead of growing the
    // registry per arbitrary method string.
    assert_eq!(unknown.count() - unknown_before, 2);
}

/// Every method `initialize` lists, and `initialize` itself — the
/// server's whole method table — dispatches and records into its own
/// `ide.latency.<method>` histogram.
#[test]
fn every_listed_method_dispatches_into_its_own_histogram() {
    let _serial = serial();
    let server = EvpServer::new();
    let initialize = server
        .handle(&Request::new(1, "initialize", Value::Null))
        .unwrap()
        .outcome
        .unwrap();
    let listed = initialize
        .get("capabilities")
        .and_then(Value::as_array)
        .unwrap();
    let methods = listed
        .iter()
        .map(|m| m.as_str().unwrap())
        .chain(["initialize"]);
    for (id, method) in (2..).zip(methods) {
        let count = || {
            ev_trace::snapshot_metrics()
                .histogram(&format!("ide.latency.{method}"))
                .map_or(0, |h| h.count)
        };
        let unknown = ev_trace::histogram("ide.latency.unknown").count();
        let before = count();
        let response = server
            .handle(&Request::new(id, method, Value::Null))
            .unwrap();
        if let Err((code, message)) = response.outcome {
            assert_ne!(code, codes::METHOD_NOT_FOUND, "{method}: {message}");
        }
        assert_eq!(count() - before, 1, "{method}");
        assert_eq!(ev_trace::histogram("ide.latency.unknown").count(), unknown);
    }
}
