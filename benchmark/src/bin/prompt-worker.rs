//! The benchmark's own worker process for `zipf_dist`: the public
//! `net::run_worker` loop behind the argument convention
//! `DistributedRuntime::launch` spawns workers with. It is built into the
//! same target directory as the bench executable, which is where the
//! runtime looks for it.

use std::net::SocketAddr;
use std::process::ExitCode;

use prompt_engine::net::{run_worker, WorkerOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.as_slice() {
        [d, addr, w, id] if d == "--driver" && w == "--worker" => {
            addr.parse::<SocketAddr>().ok().zip(id.parse::<u32>().ok())
        }
        _ => None,
    };
    let Some((driver, worker)) = parsed else {
        eprintln!("usage: prompt-worker --driver HOST:PORT --worker ID");
        return ExitCode::from(2);
    };
    match run_worker(driver, WorkerOptions::new(worker)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("prompt-worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}
