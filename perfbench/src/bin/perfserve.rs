//! The system under test: one nd-serve server configured for a
//! benchmark workload, run as a child process of `perfbench` so that
//! its CPU time and peak memory are its own.
//!
//! Usage: `perfserve --workload <name> --dir <dir>`. Prints
//! `ADDR <ip:port>` once listening, serves until its standard input
//! closes, then shuts down gracefully and exits.

use nd_perfbench as pb;
use nd_serve::{loadgen, ServeConfig, Server};
use std::io::{Read, Write};
use std::path::Path;

fn start(workload: &str, dir: &Path) -> Result<Server, String> {
    let db = dir.join("db");
    match workload {
        "stream_advance" => {
            let registry = pb::retrained_registry(&db, pb::stream_dim())?;
            let stream = pb::stream_spec(&dir.join("stream-cache"));
            Server::start(
                ServeConfig {
                    stream: Some(stream),
                    ..ServeConfig::default()
                },
                registry,
            )
            .map_err(|e| e.to_string())
        }
        "refresh_warm" => {
            let registry = pb::retrained_registry(&db, pb::refresh_dim())?;
            let retrain = pb::refresh_spec();
            Server::start(
                ServeConfig {
                    retrain: Some(retrain),
                    ..ServeConfig::default()
                },
                registry,
            )
            .map_err(|e| e.to_string())
        }
        "predict_hotskew" => {
            loadgen::boot_fixture(&db, pb::HOT_MODELS, pb::HOT_DIM, ServeConfig::default())
                .map_err(|e| e.to_string())
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (Some(workload), Some(dir)) = (pb::arg(&args, "--workload"), pb::arg(&args, "--dir"))
    else {
        eprintln!("usage: perfserve --workload <name> --dir <dir>");
        std::process::exit(2);
    };
    let server = match start(&workload, Path::new(&dir)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfserve: {e}");
            std::process::exit(1);
        }
    };
    let mut stdout = std::io::stdout();
    if writeln!(stdout, "ADDR {}", server.addr())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        std::process::exit(1);
    }
    // Serve until the driver closes our stdin (or exits).
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink).ok();
    server.shutdown();
}
