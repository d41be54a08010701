//! End-to-end tests of the `symcosim-cli` binary.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_symcosim-cli");

#[test]
fn help_prints_usage() {
    let output = Command::new(BIN)
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("verify"));
    assert!(text.contains("inject"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let output = Command::new(BIN)
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    assert!(text.contains("unknown subcommand"));
}

#[test]
fn inject_finds_a_fast_fault() {
    // E5 (JAL loses the PC update) is detected within a handful of paths.
    let output = Command::new(BIN)
        .args(["inject", "E5"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("JAL does not change the PC"), "{text}");
    assert!(text.contains("reproducer:"), "{text}");
}

#[test]
fn a_reader_closing_the_pipe_early_ends_the_run_cleanly() {
    // `symcosim-cli inject E6 | head -1`: the reader takes the first line
    // and hangs up while the hunt runs, so the report write that follows
    // meets a broken pipe.
    let mut child = Command::new(BIN)
        .args(["inject", "E6"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("injected fault"), "{first}");
    let output = child.wait_with_output().expect("binary finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
}

#[test]
fn asm_assembles_stdin() {
    let mut child = Command::new(BIN)
        .arg("asm")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"addi x1, x0, 42\nebreak\n")
        .expect("write source");
    let output = child.wait_with_output().expect("binary finishes");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        text.lines().collect::<Vec<_>>(),
        vec!["02a00093", "00100073"]
    );
}

#[test]
fn asm_reports_errors_on_stderr() {
    let mut child = Command::new(BIN)
        .arg("asm")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"bogus x1\n")
        .expect("write source");
    let output = child.wait_with_output().expect("binary finishes");
    assert!(!output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    assert!(text.contains("line 1"), "{text}");
}

#[test]
fn verify_slices_matches_the_unsliced_certificate() {
    let single = Command::new(BIN)
        .args(["verify", "--opcode", "0x63", "--certify"])
        .output()
        .expect("binary runs");
    assert!(
        single.status.success(),
        "{}",
        String::from_utf8_lossy(&single.stderr)
    );
    let single = String::from_utf8_lossy(&single.stdout);
    let certificate = single
        .split("coverage certificate")
        .nth(1)
        .expect("unsliced run prints a certificate");

    let sliced = Command::new(BIN)
        .args(["verify", "--opcode", "0x63", "--certify", "--slices", "2"])
        .output()
        .expect("binary runs");
    assert!(
        sliced.status.success(),
        "{}",
        String::from_utf8_lossy(&sliced.stderr)
    );
    let sliced = String::from_utf8_lossy(&sliced.stdout);
    assert!(sliced.contains("slice 1/2"), "{sliced}");
    assert!(sliced.contains("slice 2/2"), "{sliced}");
    assert_eq!(
        sliced.split("coverage certificate").nth(1),
        Some(certificate),
        "sliced certificate diverged from the unsliced run"
    );
}

#[test]
fn verify_slices_requires_certify() {
    let output = Command::new(BIN)
        .args(["verify", "--opcode", "0x63", "--slices", "2"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    assert!(text.contains("--certify"), "{text}");
}
