//! Request counters and per-method latency histograms of the EVP
//! server. They live in the process-global metrics registry, so this
//! test has its own binary: no other test calls `EvpServer::handle`
//! between its readings, and the deltas are exact.

use ev_ide::rpc::Request;
use ev_ide::EvpServer;
use ev_json::Value;

#[test]
fn requests_bump_counters_and_per_method_histograms() {
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
