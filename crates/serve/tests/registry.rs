//! The router's front end shares the shard's listener, so it has the same
//! connection registry — and must prune it the same way. Alone in its own
//! test binary so that the process's fd count is this test's alone.

use sp_serve::net::{Client, Server};
use sp_serve::router::{Router, RouterConfig, RouterServer};
use sp_serve::service::ServeConfig;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

#[test]
fn router_connection_registry_prunes_closed_connections() {
    let shard = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let router = Router::new(
        RouterConfig {
            health_interval_ms: 0,
            ..Default::default()
        },
        &[("a".to_string(), shard.local_addr().to_string())],
    )
    .unwrap();
    let rs = RouterServer::bind("127.0.0.1:0", router).unwrap();
    let addr = rs.local_addr();

    let round = || {
        for _ in 0..12 {
            let mut c = Client::connect(&addr).unwrap();
            assert_eq!(
                c.request("{\"type\": \"ping\"}").unwrap(),
                "{\"type\": \"pong\"}"
            );
        }
        // Handlers notice the close within their 50 ms read-timeout poll.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rs.open_connections() > 0 {
            assert!(
                Instant::now() < deadline,
                "{} closed connections still registered (fd leak)",
                rs.open_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    round();
    let fds = open_fds();
    round();
    assert!(open_fds() <= fds, "fds grew from {fds} to {}", open_fds());

    rs.shutdown();
    rs.wait();
    shard.shutdown();
    shard.wait();
}
