//! The `sfetch-serve` binary: resident simulation daemon plus thin
//! clients.
//!
//! ```text
//! # Resident daemon: one warm store, one ledger per request family.
//! sfetch-serve serve --socket /tmp/sfetch.sock --store /tmp/sfetch-store \
//!     [--procs N] [--max-retries N] [--store-cap-bytes B]
//!
//! # Submit a grid request and stream the raw result events to stdout.
//! sfetch-serve submit --socket /tmp/sfetch.sock \
//!     [--bench phased] [--engines all|…] [--widths all|…] \
//!     [--grid-total N] [--grid-sample U,Wf,Wd,D[,Wm]] [--warm-bank] \
//!     [--req ID] [other figure8_sampled grid flags]
//!
//! # Replay a request's event stream (live or from the mirror).
//! sfetch-serve tail --socket /tmp/sfetch.sock --req ID
//!
//! # Readiness probe (exit 0 iff the daemon answers).
//! sfetch-serve ping --socket /tmp/sfetch.sock
//! ```
//!
//! `submit` speaks the same wire protocol as `figure8_sampled --serve`
//! / `figure9_sampled --serve`; those binaries additionally merge the
//! streamed points into the byte-identical one-shot tables, while this
//! client prints the raw event lines (exit 0 complete, 2 degraded,
//! 1 error).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;

use sfetch_bench::driver::{
    or_die, process_args, submit_and_collect, ArgDefaults, CommonArgs, ServeEvent,
};
use sfetch_serve::{signals, Daemon, DaemonConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sfetch-serve serve --socket PATH --store DIR [--procs N] [--max-retries N] [--store-cap-bytes N]\n\
         \x20      sfetch-serve submit --socket PATH [grid flags…]\n\
         \x20      sfetch-serve tail --socket PATH --req ID\n\
         \x20      sfetch-serve ping --socket PATH"
    );
    ExitCode::FAILURE
}

/// Pulls `--flag VALUE` out of a client's argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        return None;
    }
    args.remove(at);
    Some(args.remove(at))
}

fn run_serve(args: Vec<String>) -> ExitCode {
    let cfg = or_die(DaemonConfig::from_args(&args));
    let stop = signals::install();
    match Daemon::new(cfg).run(stop) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_submit(mut args: Vec<String>) -> ExitCode {
    // `submit --socket PATH` is the figure bins' `--serve PATH`.
    for a in &mut args {
        if a == "--socket" {
            *a = "--serve".into();
        }
    }
    let a = or_die(CommonArgs::parse_list(
        args,
        &ArgDefaults { benches: "phased", engines: "all", widths: "all", procs: 1 },
    ));
    let Some(sock) = &a.serve else {
        eprintln!("error: submit requires --socket PATH");
        return ExitCode::FAILURE;
    };
    let req = a.request(a.bench());
    let id = a.req_id.clone().unwrap_or_else(|| format!("submit-{}", std::process::id()));
    let out = or_die(submit_and_collect(sock, &id, &req, |line| println!("{line}")));
    let _ = std::io::stdout().flush();
    if out.status == "complete" { ExitCode::SUCCESS } else { ExitCode::from(2) }
}

fn one_line_op(sock: &str, line: &str) -> Result<UnixStream, String> {
    let stream =
        UnixStream::connect(sock).map_err(|e| format!("connect {sock}: {e}"))?;
    let mut w = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    w.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
    Ok(stream)
}

fn run_tail(mut args: Vec<String>) -> ExitCode {
    let (Some(sock), Some(id)) =
        (take_flag(&mut args, "--socket"), take_flag(&mut args, "--req"))
    else {
        return usage();
    };
    let line = sfetch_obs::Row::new().s("op", "tail").s("id", &id).finish();
    let stream = or_die(one_line_op(&sock, &line));
    let mut status = ExitCode::SUCCESS;
    for l in BufReader::new(stream).lines() {
        let l = or_die(l.map_err(|e| format!("read stream: {e}")));
        println!("{l}");
        if let Ok(ServeEvent::Error { .. }) = ServeEvent::parse(&l) {
            status = ExitCode::FAILURE;
        }
    }
    status
}

fn run_ping(mut args: Vec<String>) -> ExitCode {
    let Some(sock) = take_flag(&mut args, "--socket") else {
        return usage();
    };
    let ping = sfetch_obs::Row::new().s("op", "ping").finish();
    let stream = match one_line_op(&sock, &ping) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(_) if matches!(ServeEvent::parse(&line), Ok(ServeEvent::Pong)) => {
            println!("pong");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("error: no pong from {sock}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = or_die(process_args());
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "serve" => run_serve(args),
        "submit" => run_submit(args),
        "tail" => run_tail(args),
        "ping" => run_ping(args),
        _ => usage(),
    }
}
