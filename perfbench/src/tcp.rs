//! The `serve` process under test and line-protocol connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a freshly spawned server may take to report its address.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `serve --tcp` process. Dropping it kills the process and
/// waits for it to end.
pub struct ServeProc {
    child: Child,
    /// The address the server listens on.
    pub addr: String,
}

impl ServeProc {
    /// Spawns `bin --tcp 127.0.0.1:0 <args>` with stderr captured in
    /// `log`, and waits until the server reports its listening address.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<ServeProc, String> {
        let err = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg("--tcp").arg("127.0.0.1:0").args(args);
        // the engine's thread knobs read UDB_* variables: serve runs
        // with its defaults, like the in-process replays
        for (key, _) in std::env::vars() {
            if key.starts_with("UDB_") {
                cmd.env_remove(key);
            }
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut proc = ServeProc {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + LISTEN_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // complete lines only: the line may be mid-write
            if let Some(addr) = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix("serve: listening on "))
            {
                proc.addr = addr.trim().to_owned();
                return Ok(proc);
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("serve exited early ({status}): {}", text.trim()));
            }
            if Instant::now() > deadline {
                return Err("serve did not report a listening address".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Opens a new protocol connection to the server.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    fn status_field(&self, key: &str) -> Option<f64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = text.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.status_field("VmHWM:").unwrap_or(0.0) / 1024.0
    }

    /// User + system CPU seconds the server has used so far (clock
    /// ticks of 10 ms, the Linux `USER_HZ`).
    pub fn cpu_s(&self) -> f64 {
        let text =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<f64> = rest
            .split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect();
        // rest starts at field 3 (state, non-numeric, skipped by the
        // filter), so utime/stime are at positions 10 and 11
        (f.get(10).copied().unwrap_or(0.0) + f.get(11).copied().unwrap_or(0.0)) / 100.0
    }

    /// `kill -9`, then wait for the process to end.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One line-protocol connection: requests out, reply lines in.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr` with Nagle off (every request is one small
    /// write the server should see at once).
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        send_on(&mut self.writer, line)
    }

    /// Receives one reply line (without its newline). The reply is
    /// acknowledged at once (see [`quick_ack`]).
    pub fn recv(&mut self) -> Result<String, String> {
        quick_ack(&self.writer);
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => {
                if line.ends_with('\n') {
                    line.pop();
                }
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// A second handle on the same socket for a writer thread (the
    /// reader half stays with `self`).
    pub fn writer(&self) -> Result<TcpStream, String> {
        self.writer.try_clone().map_err(|e| e.to_string())
    }

    /// Sends every line from a second thread while this thread reads
    /// `expect` replies — a pipelined bulk load that cannot deadlock on
    /// full socket buffers.
    pub fn pipeline(&mut self, lines: &[String], expect: usize) -> Result<Vec<String>, String> {
        let mut out = self.writer()?;
        let payload: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
            .collect();
        std::thread::scope(|s| {
            let sender = s.spawn(move || out.write_all(&payload).map_err(|e| e.to_string()));
            let mut replies = Vec::with_capacity(expect);
            while replies.len() < expect {
                replies.push(self.recv()?);
            }
            sender.join().expect("sender thread")?;
            Ok(replies)
        })
    }
}

/// Asks the kernel to acknowledge the next segments this socket
/// receives immediately (Linux `TCP_QUICKACK`; the flag does not stick,
/// so it is set before every read). `serve` leaves Nagle's algorithm on:
/// with the client's delayed ACKs, a reply waits until the next request
/// carries the ACK of the previous reply, so open-loop latency would
/// read as the arrival interval on some runs and as the service time on
/// others. Acknowledging at once measures the server, not the client's
/// ACK timer.
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which is alive for the
    // call; `value` points at a live i32 whose size is passed as `len`.
    // A failure only leaves the default ACK timing, so it is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Sends one request line on a raw socket handle (one write, so the
/// server sees the whole line at once).
pub fn send_on(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    stream.write_all(&buf).map_err(|e| format!("send: {e}"))
}

/// Total size in bytes of every regular file under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
