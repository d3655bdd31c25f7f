//! Accept under file-descriptor exhaustion. While the process sits at
//! `RLIMIT_NOFILE`, `accept` fails with `EMFILE` and the pending
//! connection stays in the backlog, so a level-triggered listener reports
//! readable on every wait. The server must count the error and park the
//! listener instead of spinning, then serve the connection once
//! descriptors are free again.
//!
//! This is its own test binary because it exhausts the whole process's
//! descriptors: any test running beside it would fail spuriously.

use replay_serve::proto::{read_frame, write_frame};
use replay_serve::{Request, Response, Server, ServerConfig, Source, Status};
use replay_sim::report::strip_store_section;
use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

const SCALE: usize = 2_000;

#[test]
fn accept_at_the_fd_limit_parks_the_listener_instead_of_spinning() {
    let w = replay_trace::workloads::by_name("gzip").expect("known workload");
    let trace = replay_sim::TraceStore::global().segment(&w, 0, SCALE);
    let (_, oracle) = replay_sim::report::run_report(&trace, 1, false);
    let req = Request {
        source: Source::Workload("gzip".to_string()),
        scale: SCALE as u64,
        timings: false,
        deadline_ms: 0,
        relayed: false,
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &req.encode()).expect("encode frame");

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let stop = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());

    // Take every free descriptor, then give one back for the client's
    // socket: the server's accept of that connection has none left.
    let mut hoard: Vec<File> = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hoard.push(f);
    }
    assert!(!hoard.is_empty(), "no descriptors to hoard");
    hoard.pop();
    let mut conn = TcpStream::connect(addr).expect("connect with the one free fd");
    conn.write_all(&frame).expect("send request");
    std::thread::sleep(Duration::from_millis(300));
    drop(hoard);

    let resp =
        Response::decode(&read_frame(&mut conn).expect("response frame")).expect("decode response");
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    assert_eq!(
        strip_store_section(&String::from_utf8(resp.body).expect("UTF-8 body")),
        strip_store_section(&oracle)
    );

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    let errors = stats.profile.counter("serve.accept.errors");
    let wakeups = stats.profile.counter("serve.poll.wakeups");
    eprintln!("serve.accept.errors = {errors}, serve.poll.wakeups = {wakeups}");
    assert!(errors >= 1, "the EMFILE accept must be counted");
    assert!(
        wakeups < 1_000,
        "the poll loop spun while out of descriptors: {wakeups} wakeups; profile:\n{}",
        stats.profile.render_table(false)
    );
    assert_eq!(stats.served(), 1);
}
