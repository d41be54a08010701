//! The verification-service daemon and its command-line client.
//!
//! Daemon:
//!
//! ```text
//! symcosim-serve [--addr HOST:PORT] [--workers N] [--port-file PATH]
//! ```
//!
//! Binds (port `0` picks an ephemeral port), optionally writes the
//! resolved `HOST:PORT` to `--port-file` (atomically, for scripts to wait
//! on), and serves until `POST /shutdown`.
//!
//! Client (all subcommands take `--addr HOST:PORT`):
//!
//! ```text
//! symcosim-serve client --addr A submit [--preset P] [--opcode N]
//!     [--slices N] [--instr-limit N] [--max-paths N] [--seed N]
//!     [--no-chain] [--audit]
//! symcosim-serve client --addr A status JOB
//! symcosim-serve client --addr A wait JOB [--timeout-secs N]
//! symcosim-serve client --addr A events JOB
//! symcosim-serve client --addr A cert JOB
//! symcosim-serve client --addr A shutdown
//! ```
//!
//! `submit` prints the new job id alone on stdout (machine-friendly);
//! everything else prints the response body.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use symcosim_core::json::JsonValue;
use symcosim_core::JobSpec;
use symcosim_serve::http::{request, stream_lines};
use symcosim_serve::{Server, ServerConfig};

fn fail(message: &str) -> ExitCode {
    eprintln!("symcosim-serve: {message}");
    ExitCode::FAILURE
}

/// Pulls the value following `flag` out of `args`, removing both.
fn flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|arg| arg == flag) {
        Some(index) => {
            if index + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            args.remove(index);
            Ok(Some(args.remove(index)))
        }
        None => Ok(None),
    }
}

/// `flag_value` parsed as an integer.
fn flag_number(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    match flag_value(args, flag)? {
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} must be a number, got `{raw}`")),
        None => Ok(None),
    }
}

/// Removes a boolean `flag` from `args`, reporting whether it was there.
fn flag_present(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|arg| arg == flag) {
        Some(index) => {
            args.remove(index);
            true
        }
        None => false,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("client") {
        args.remove(0);
        return match client(args) {
            Ok(code) => code,
            Err(message) => fail(&message),
        };
    }
    match daemon(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => fail(&message),
    }
}

/// Runs the daemon until shutdown.
fn daemon(mut args: Vec<String>) -> Result<(), String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(&mut args, "--addr")? {
        config.addr = addr;
    }
    if let Some(workers) = flag_number(&mut args, "--workers")? {
        config.verify_workers = workers as usize;
    }
    let port_file = flag_value(&mut args, "--port-file")?;
    if let Some(stray) = args.first() {
        return Err(format!("unknown argument `{stray}`"));
    }

    let server = Server::bind(&config).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "symcosim-serve: listening on {addr} ({} verify workers)",
        config.verify_workers
    );
    if let Some(path) = port_file {
        // Write-then-rename so waiters never read a half-written file.
        let staging = format!("{path}.tmp");
        let mut file = std::fs::File::create(&staging).map_err(|e| format!("{staging}: {e}"))?;
        writeln!(file, "{addr}").map_err(|e| format!("{staging}: {e}"))?;
        drop(file);
        std::fs::rename(&staging, &path).map_err(|e| format!("{path}: {e}"))?;
    }
    server.run().map_err(|e| e.to_string())
}

/// Runs one client subcommand.
fn client(mut args: Vec<String>) -> Result<ExitCode, String> {
    let addr = flag_value(&mut args, "--addr")?.ok_or("client needs --addr HOST:PORT")?;
    let command = if args.is_empty() {
        return Err("client needs a subcommand (submit|status|wait|events|cert|shutdown)".into());
    } else {
        args.remove(0)
    };
    match command.as_str() {
        "submit" => submit(&addr, args),
        "status" => {
            let id = job_id(&mut args)?;
            let response =
                request(&addr, "GET", &format!("/jobs/{id}"), None).map_err(|e| e.to_string())?;
            println!("{}", response.body);
            Ok(exit_for(response.status))
        }
        "wait" => wait(&addr, args),
        "events" => {
            let id = job_id(&mut args)?;
            let status = stream_lines(&addr, &format!("/jobs/{id}/events"), |line| {
                println!("{line}");
            })
            .map_err(|e| e.to_string())?;
            Ok(exit_for(status))
        }
        "cert" => {
            let id = job_id(&mut args)?;
            let response = request(&addr, "GET", &format!("/jobs/{id}/certificate"), None)
                .map_err(|e| e.to_string())?;
            println!("{}", response.body);
            Ok(exit_for(response.status))
        }
        "shutdown" => {
            let response = request(&addr, "POST", "/shutdown", None).map_err(|e| e.to_string())?;
            print!("{}", response.body);
            Ok(exit_for(response.status))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn job_id(args: &mut Vec<String>) -> Result<String, String> {
    if args.is_empty() {
        return Err("missing job id".into());
    }
    Ok(args.remove(0))
}

fn exit_for(status: u16) -> ExitCode {
    if (200..300).contains(&status) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds a `symcosim-job/1` document from flags and POSTs it.
fn submit(addr: &str, mut args: Vec<String>) -> Result<ExitCode, String> {
    let mut spec = JobSpec::default();
    if let Some(preset) = flag_value(&mut args, "--preset")? {
        spec.preset = preset;
    }
    if let Some(opcode) = flag_number(&mut args, "--opcode")? {
        spec.opcode = Some(opcode as u32);
    }
    if let Some(slices) = flag_number(&mut args, "--slices")? {
        spec.slices = slices as usize;
    }
    if let Some(limit) = flag_number(&mut args, "--instr-limit")? {
        spec.instr_limit = limit as u32;
    }
    if let Some(paths) = flag_number(&mut args, "--max-paths")? {
        spec.max_paths = paths as usize;
    }
    if let Some(seed) = flag_number(&mut args, "--seed")? {
        spec.seed = seed;
    }
    if flag_present(&mut args, "--no-chain") {
        spec.solver_chain = false;
    }
    if flag_present(&mut args, "--audit") {
        spec.audit = true;
    }
    if let Some(stray) = args.first() {
        return Err(format!("unknown argument `{stray}`"));
    }

    let response =
        request(addr, "POST", "/jobs", Some(&spec.to_json())).map_err(|e| e.to_string())?;
    if response.status != 201 {
        return Err(format!(
            "submit failed ({}): {}",
            response.status,
            response.body.trim()
        ));
    }
    let id = JsonValue::parse(&response.body)
        .ok()
        .and_then(|status| status.get("id").and_then(JsonValue::as_u64))
        .ok_or("daemon returned an unparseable status document")?;
    println!("{id}");
    Ok(ExitCode::SUCCESS)
}

/// Polls the job until it leaves `queued`/`running`, then prints the
/// final status document. Exit 0 only for `done`.
fn wait(addr: &str, mut args: Vec<String>) -> Result<ExitCode, String> {
    let timeout = Duration::from_secs(flag_number(&mut args, "--timeout-secs")?.unwrap_or(300));
    let id = job_id(&mut args)?;
    let deadline = Instant::now() + timeout;
    loop {
        let response =
            request(addr, "GET", &format!("/jobs/{id}"), None).map_err(|e| e.to_string())?;
        if response.status != 200 {
            return Err(format!(
                "status failed ({}): {}",
                response.status,
                response.body.trim()
            ));
        }
        let state = JsonValue::parse(&response.body)
            .ok()
            .and_then(|status| {
                status
                    .get("state")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .ok_or("daemon returned an unparseable status document")?;
        match state.as_str() {
            "done" | "failed" => {
                println!("{}", response.body);
                return Ok(if state == "done" {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            _ if Instant::now() >= deadline => {
                return Err(format!(
                    "timed out waiting for job {id} (last state: {state})"
                ));
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}
