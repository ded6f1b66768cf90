//! The `spechd-server` binary refuses a bad flag value before it serves:
//! exit code 2 and the usage text, as for every other bad flag.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the server on an ephemeral port with `args`: its exit code, or
/// `None` if it was still serving after a few seconds (it is then
/// killed), and what it wrote to stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spechd-server"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start spechd-server");
    let deadline = Instant::now() + Duration::from_secs(5);
    let code = loop {
        match child.try_wait().expect("poll spechd-server") {
            Some(status) => break status.code(),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let _ = child.kill();
    let output = child.wait_with_output().expect("reap spechd-server");
    (code, String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn a_max_frame_mb_outside_1_to_4095_is_a_usage_error() {
    // 0 MiB refuses every frame with a payload; 4096 MiB and up no longer
    // fit the u32 frame cap.
    for mb in ["0", "4096", "4294967295"] {
        let (code, stderr) = run(&["--max-frame-mb", mb]);
        assert_eq!(code, Some(2), "--max-frame-mb {mb}: {stderr}");
        assert!(stderr.contains("USAGE"), "--max-frame-mb {mb}: {stderr}");
    }
}
