//! Starts and stops the serving processes under test: one
//! `neusight serve --reactor`, or `neusight router --replicas 2` in spawn
//! mode with reactor replicas.

use std::fs::{self, File};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::procfs;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `neusight serve --reactor`.
    Serve,
    /// `neusight router --replicas 2`, replicas in reactor mode.
    Routed,
}

pub struct Serving {
    child: Child,
    /// The process clients talk to (server or router).
    pub addr: SocketAddr,
    /// Every serving process: the front process first, then replicas.
    pub pids: Vec<u32>,
    /// The `neusight serve` processes: the front one, or the replicas.
    pub servers: Vec<SocketAddr>,
    stopped: bool,
}

const START_TIMEOUT: Duration = Duration::from_secs(60);

impl Serving {
    /// Spawns the topology and returns once it answers `/healthz` as
    /// fully healthy.
    pub fn start(
        bin: &Path,
        fixture: &Path,
        workdir: &Path,
        topology: Topology,
    ) -> io::Result<Serving> {
        fs::create_dir_all(workdir)?;
        let log: PathBuf = workdir.join("serving.out");
        let mut command = Command::new(bin);
        match topology {
            Topology::Serve => command.args(["serve", "--reactor", "--port", "0"]),
            Topology::Routed => command.args([
                "router",
                "--replicas",
                "2",
                "--reactor",
                "--addr",
                "127.0.0.1:0",
            ]),
        };
        command
            .arg("--predictor")
            .arg(fixture)
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(File::create(&log)?)
            .stderr(File::create(workdir.join("serving.err"))?);
        let child = command.spawn()?;
        let mut serving = Serving {
            pids: vec![child.id()],
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            servers: Vec::new(),
            stopped: false,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Some(status) = serving.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "serving process exited during start-up ({status}); see {}",
                    workdir.display()
                )));
            }
            let text = fs::read_to_string(&log).unwrap_or_default();
            if let Some(addr) = announced(&text, topology) {
                serving.addr = addr;
                if topology == Topology::Routed {
                    for (pid, replica) in replicas(&text) {
                        serving.pids.push(pid);
                        serving.servers.push(replica);
                    }
                } else {
                    serving.servers.push(addr);
                }
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(
                    "serving process never announced its address",
                ));
            }
            sleep(Duration::from_millis(2));
        }
        loop {
            if serving.healthy() {
                return Ok(serving);
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("serving process never became healthy"));
            }
            sleep(Duration::from_millis(2));
        }
    }

    fn healthy(&self) -> bool {
        let Ok((status, body)) = Conn::connect(self.addr).and_then(|mut c| c.get("/healthz"))
        else {
            return false;
        };
        // The router answers 200 while degraded; wait for every replica.
        status == 200 && body.contains("\"status\":\"ok\"")
    }

    /// SIGTERM (graceful drain), then waits for every serving process to
    /// end; SIGKILL for any that outlives the grace period.
    pub fn stop(mut self) -> io::Result<()> {
        self.stopped = true;
        procfs::signal(self.child.id(), procfs::SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                procfs::signal(self.child.id(), procfs::SIGKILL);
                self.child.wait()?;
                break;
            }
            sleep(Duration::from_millis(5));
        }
        // Replicas are the router's children: it reaps them on drain. Make
        // sure none outlives it.
        for &pid in &self.pids[1..] {
            let deadline = Instant::now() + Duration::from_secs(5);
            while procfs::alive(pid) {
                if Instant::now() > deadline {
                    procfs::signal(pid, procfs::SIGKILL);
                }
                sleep(Duration::from_millis(5));
            }
        }
        Ok(())
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        if !self.stopped {
            for &pid in &self.pids {
                procfs::signal(pid, procfs::SIGKILL);
            }
            let _ = self.child.wait();
        }
    }
}

/// The client-facing address from the start-up banner.
fn announced(text: &str, topology: Topology) -> Option<SocketAddr> {
    text.lines().find_map(|line| match topology {
        Topology::Serve => line.strip_prefix("ADDR ")?.trim().parse().ok(),
        Topology::Routed => line
            .strip_prefix("routing on http://")?
            .split_whitespace()
            .next()?
            .parse()
            .ok(),
    })
}

/// Replica pids and addresses from the router's
/// `replica-N on http://ADDR (pid P)` lines.
fn replicas(text: &str) -> Vec<(u32, SocketAddr)> {
    text.lines()
        .filter(|l| l.starts_with("replica-"))
        .filter_map(|l| {
            let (head, pid) = l.rsplit_once(" (pid ")?;
            let addr = head.split_once(" on http://")?.1.parse().ok()?;
            Some((pid.strip_suffix(')')?.parse().ok()?, addr))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_banners() {
        let serve = "ADDR 127.0.0.1:4000\nserving on http://127.0.0.1:4000 (reactor mode)\n";
        assert_eq!(
            announced(serve, Topology::Serve),
            Some("127.0.0.1:4000".parse().unwrap())
        );
        let router = "replica-0 on http://127.0.0.1:5 (pid 11)\nreplica-1 on http://127.0.0.1:6 (pid 12)\nrouting on http://127.0.0.1:7 across 2 replicas\n";
        assert_eq!(
            announced(router, Topology::Routed),
            Some("127.0.0.1:7".parse().unwrap())
        );
        assert_eq!(
            replicas(router),
            vec![
                (11, "127.0.0.1:5".parse().unwrap()),
                (12, "127.0.0.1:6".parse().unwrap())
            ]
        );
    }
}
