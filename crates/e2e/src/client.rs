//! The benchmark's HTTP client and request plans for `et-serve`.
//!
//! A plan is rendered to bytes before the clock starts, together with the
//! answer the benchmark expects, computed from the library in set-up. A
//! response is checked after its latency sample is taken.

use crate::catalog::Sizes;
use crate::inputs::{SplitMix64, Zipf};
use crate::prepare::Loaded;
use et_community::{community_of_edge, community_stats};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// The request kinds of the mix; the discriminant indexes per-kind arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `GET /query?v&k`
    Query = 0,
    /// `GET /query?v&k&members=1`
    Members = 1,
    /// `GET /edge?u&v&k`
    Edge = 2,
    /// `POST /batch`
    Batch = 3,
    /// `POST /reload`
    Reload = 4,
}

/// What a correct response to a planned request says.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `communities` of a `/query` answer.
    Communities(u64),
    /// `found` and, when found, `edges` of an `/edge` answer.
    Edge(Option<u64>),
    /// `communities` of each `/batch` result row.
    Rows(Vec<u64>),
    /// `ok` of a `/reload` answer.
    Reloaded,
}

/// A request ready to send.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Its kind.
    pub kind: Kind,
    /// The bytes on the wire.
    pub bytes: Vec<u8>,
    /// The expected answer.
    pub expect: Expect,
}

fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `POST /reload` request.
pub fn reload_request() -> Planned {
    Planned {
        kind: Kind::Reload,
        bytes: post("/reload", ""),
        expect: Expect::Reloaded,
    }
}

/// The popularity-ranked `(v, k)` keys requests draw from, with the number
/// of communities each has.
pub struct KeySpace {
    keys: Vec<(u32, u32, u64)>,
    zipf: Zipf,
}

impl KeySpace {
    /// `count` seeded keys over `loaded`; rank 0 is the most popular.
    pub fn new(loaded: &Loaded, count: usize, seed: u64) -> Self {
        let keys = crate::inputs::query_stream(&loaded.graph, &loaded.index, count, seed)
            .into_iter()
            .map(|(v, k)| {
                let stats = community_stats(&loaded.graph, &loaded.index, &loaded.hierarchy, v, k);
                (v, k, stats.len() as u64)
            })
            .collect();
        KeySpace {
            keys,
            zipf: Zipf::new(count),
        }
    }

    /// A key by Zipf(1.0) popularity.
    fn popular(&self, rng: &mut SplitMix64) -> (u32, u32, u64) {
        self.keys[self.zipf.sample(rng)]
    }

    /// A key uniformly.
    fn any(&self, rng: &mut SplitMix64) -> (u32, u32, u64) {
        self.keys[rng.below(self.keys.len() as u64) as usize]
    }
}

/// Plans `count` requests of the mix: 80 % `/query`, 10 % with `members=1`,
/// 5 % `/edge`, 5 % `/batch` of `sizes.batch` pairs. The cached endpoints take
/// `(v, k)` by Zipf(1.0) rank over `keys`. `/batch` bypasses the cache, so its
/// pairs are uniform over `keys`: the slowest requests then cost the same from
/// seed to seed instead of following how large the few hottest keys' answers
/// happen to be. Edges are uniform over the graph.
pub fn plan_mix(
    loaded: &Loaded,
    keys: &KeySpace,
    sizes: &Sizes,
    count: usize,
    rng: &mut SplitMix64,
) -> Vec<Planned> {
    (0..count)
        .map(|_| match rng.below(100) {
            0..=79 => {
                let (v, k, communities) = keys.popular(rng);
                Planned {
                    kind: Kind::Query,
                    bytes: get(&format!("/query?v={v}&k={k}")),
                    expect: Expect::Communities(communities),
                }
            }
            80..=89 => {
                let (v, k, communities) = keys.popular(rng);
                Planned {
                    kind: Kind::Members,
                    bytes: get(&format!("/query?v={v}&k={k}&members=1")),
                    expect: Expect::Communities(communities),
                }
            }
            90..=94 => {
                let e = rng.below(loaded.graph.num_edges() as u64) as u32;
                let (u, v) = loaded.graph.endpoints(e);
                let top = loaded.trussness[e as usize].max(3);
                let k = 3 + rng.below(u64::from(top) - 2) as u32;
                let answer =
                    community_of_edge(&loaded.graph, &loaded.index, &loaded.hierarchy, e, k);
                Planned {
                    kind: Kind::Edge,
                    bytes: get(&format!("/edge?u={u}&v={v}&k={k}")),
                    expect: Expect::Edge(answer.map(|c| c.edges.len() as u64)),
                }
            }
            _ => {
                let picks: Vec<_> = (0..sizes.batch).map(|_| keys.any(rng)).collect();
                let pairs: Vec<String> =
                    picks.iter().map(|(v, k, _)| format!("[{v},{k}]")).collect();
                Planned {
                    kind: Kind::Batch,
                    bytes: post("/batch", &format!("{{\"queries\":[{}]}}", pairs.join(","))),
                    expect: Expect::Rows(picks.iter().map(|&(_, _, c)| c).collect()),
                }
            }
        })
        .collect()
}

/// One keep-alive connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl Connection {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream),
            line: Vec::new(),
            body: Vec::new(),
        })
    }

    /// Sends `request` and reads the whole response; returns the status and
    /// the body, which stays valid until the next call.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.reader.get_mut().write_all(request)?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut status = 0u16;
        let mut length = None;
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let line = std::str::from_utf8(&self.line)
                .map_err(|_| bad("response header is not UTF-8"))?
                .trim_end();
            if status == 0 {
                status = line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("malformed status line"))?;
            } else if line.is_empty() {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok((status, &self.body))
    }
}

/// The text right after every occurrence of `"key":` in `body`.
fn after_key<'a>(body: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let needle = format!("\"{key}\":");
    let mut rest = body;
    std::iter::from_fn(move || {
        let at = rest.find(&needle)?;
        rest = rest[at + needle.len()..].trim_start();
        Some(rest)
    })
}

/// The unsigned number after every occurrence of `"key":` in `body`.
fn numbers_after<'a>(body: &'a str, key: &str) -> impl Iterator<Item = u64> + 'a {
    after_key(body, key).map_while(|rest| {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        rest[..digits].parse().ok()
    })
}

/// The boolean after the first `"key":` in `body`.
fn flag_after(body: &str, key: &str) -> Option<bool> {
    let rest = after_key(body, key).next()?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Checks one response against its plan; `epoch` is the highest epoch this
/// connection has seen and is advanced.
pub fn check_response(
    plan: &Planned,
    status: u16,
    body: &[u8],
    epoch: &mut u64,
) -> Result<(), String> {
    let body = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let seen = numbers_after(body, "epoch")
        .next()
        .ok_or_else(|| format!("no epoch in {body}"))?;
    if seen < *epoch {
        return Err(format!("epoch went back from {epoch} to {seen}"));
    }
    *epoch = seen;
    let ok = match &plan.expect {
        Expect::Communities(want) => numbers_after(body, "communities").next() == Some(*want),
        Expect::Edge(None) => flag_after(body, "found") == Some(false),
        Expect::Edge(Some(edges)) => {
            flag_after(body, "found") == Some(true)
                && numbers_after(body, "edges").next() == Some(*edges)
        }
        Expect::Rows(want) => numbers_after(body, "communities").eq(want.iter().copied()),
        Expect::Reloaded => flag_after(body, "ok") == Some(true),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{:?} expected {:?}, got {body}",
            plan.kind, plan.expect
        ))
    }
}
