//! The `spechd-server` binary: serve SpecHD clustering jobs over TCP.

#![forbid(unsafe_code)]

use spechd_server::{Server, ServerConfig};
use std::time::Duration;

const USAGE: &str = "\
spechd-server — clustering-as-a-service over the SpecHD streaming pipeline

USAGE:
    spechd-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT        Address to bind (default 127.0.0.1:7687;
                            port 0 picks an ephemeral port)
    --port-file PATH        Write the bound address to PATH once
                            listening (for scripts using port 0)
    --idle-timeout-ms N     Close connections with no open job after N ms
                            of silence (default 60000)
    --queue-depth N         Per-job ingest queue depth in spectra — the
                            backpressure bound (default 1024)
    --max-frame-mb N        Reject frames with payloads above N MiB,
                            1 to 4095 (default 32)
    --max-jobs N            Shed new jobs (retryable Busy) once N are
                            live (default 1024)
    --rejoin-grace-ms N     Keep a disconnected participant's job slot
                            (and store session) resumable for N ms; 0
                            makes a disconnect a close (default 2000)
    --store-dir PATH        Directory of <name>.shpk cluster-store
                            backing files for OpenStore/PersistStore
                            sessions (default: stores are memory-only
                            and PersistStore is refused)
    --help                  Show this help
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_arg<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        fail(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => fail(&format!("invalid value {value:?} for {flag}")),
    }
}

fn main() {
    let mut addr = String::from("127.0.0.1:7687");
    let mut port_file: Option<String> = None;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_arg("--addr", args.next()),
            "--port-file" => port_file = Some(parse_arg("--port-file", args.next())),
            "--idle-timeout-ms" => {
                config.idle_timeout =
                    Duration::from_millis(parse_arg("--idle-timeout-ms", args.next()))
            }
            "--queue-depth" => config.queue_depth = parse_arg("--queue-depth", args.next()),
            "--max-frame-mb" => {
                let mb: u32 = parse_arg("--max-frame-mb", args.next());
                if !(1..4096).contains(&mb) {
                    fail(&format!("--max-frame-mb must be 1 to 4095, not {mb}"));
                }
                config.limits.max_frame_len = mb * 1024 * 1024;
            }
            "--max-jobs" => config.max_jobs = parse_arg("--max-jobs", args.next()),
            "--rejoin-grace-ms" => {
                config.rejoin_grace =
                    Duration::from_millis(parse_arg("--rejoin-grace-ms", args.next()))
            }
            "--store-dir" => {
                let dir: String = parse_arg("--store-dir", args.next());
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    fail(&format!("cannot create store dir {dir}: {e}"));
                }
                config.store_dir = Some(dir.into());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let server = match Server::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {addr}: {e}")),
    };
    let bound = server
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("cannot resolve bound address: {e}")));
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, bound.to_string()) {
            fail(&format!("cannot write port file {path}: {e}"));
        }
    }
    eprintln!("spechd-server listening on {bound}");
    if let Err(e) = server.serve() {
        fail(&format!("server failed: {e}"));
    }
}
