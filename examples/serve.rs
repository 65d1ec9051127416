//! Serve recommendations over HTTP — the "real-time response capability" of
//! RQ5 (§V-F) as a runnable demo, with no web-framework dependency (plain
//! `std::net`).
//!
//! The example trains DELRec, starts a tiny single-threaded HTTP server on a
//! random local port, issues a request against itself, prints the JSON
//! response and latency, and exits. Run with `--listen` to keep serving:
//!
//! ```sh
//! cargo run --release --example serve            # self-demo, exits
//! cargo run --release --example serve -- --listen  # stays up; curl it
//! ```
//!
//! API: `GET /recommend/<user-index>` → `{"user":N,"items":[…]}`.

use delrec::core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind,
};
use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec::data::{Dataset, ItemId};
use delrec::eval::{Ranker, ScoreRequest};
use delrec::lm::PretrainConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

fn main() {
    let listen_forever = std::env::args().any(|a| a == "--listen");

    eprintln!("training a small DELRec model …");
    let data = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.1)
        .generate(13);
    let pipeline = Pipeline::build(&data);
    let lm = pretrained_lm(
        &data,
        &pipeline,
        LmPreset::Xl,
        &PretrainConfig {
            epochs: 3,
            lr: 5e-3,
            ..Default::default()
        },
        13,
    );
    let teacher = build_teacher(&data, TeacherKind::SASRec, 4, Some(400), 13);
    let mut cfg = DelRecConfig::small(TeacherKind::SASRec);
    cfg.stage1.max_examples = Some(120);
    cfg.stage2.max_examples = Some(240);
    cfg.stage2.epochs = 3;
    let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    eprintln!("serving on http://{addr}/recommend/<user>");

    if listen_forever {
        for stream in listener.incoming().flatten() {
            handle(stream, &model, &data);
        }
        return;
    }

    // Self-demo: one request from a helper thread.
    let t = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let started = Instant::now();
        write!(conn, "GET /recommend/0 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(conn);
        let mut body = String::new();
        let mut line = String::new();
        let mut in_body = false;
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if in_body {
                body.push_str(&line);
                break;
            }
            if line.trim().is_empty() {
                in_body = true;
            }
            line.clear();
        }
        (body, started.elapsed())
    });
    if let Ok(stream) = listener.incoming().next().unwrap() {
        handle(stream, &model, &data);
    }
    let (body, latency) = t.join().unwrap();
    println!("response: {body}");
    println!(
        "round-trip latency: {:.1} ms",
        latency.as_secs_f64() * 1000.0
    );
}

/// Parse one request, write one response, close.
fn handle(stream: TcpStream, model: &DelRec, data: &Dataset) {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers.
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 && line.trim() != "" {
        line.clear();
    }
    let mut stream = reader.into_inner();
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let response = match path
        .strip_prefix("/recommend/")
        .and_then(|u| u.parse::<usize>().ok())
    {
        Some(user) if user < data.sequences.len() => {
            let history: Vec<ItemId> = data.sequences[user].items().collect();
            let candidates: Vec<ItemId> = data.catalog.ids().collect();
            // One request per 14 titles: a whole catalog cannot fit one prompt.
            let requests: Vec<ScoreRequest<'_>> = candidates
                .chunks(14)
                .map(|chunk| (history.as_slice(), chunk))
                .collect();
            let scores = model.score_candidates_batch(&requests).concat();
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
            let items: Vec<String> = idx
                .iter()
                .take(5)
                .map(|&i| format!("\"{}\"", data.catalog.title(ItemId(i as u32))))
                .collect();
            let body = format!("{{\"user\":{user},\"items\":[{}]}}\n", items.join(","));
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        }
        _ => {
            let body = "{\"error\":\"use /recommend/<user-index>\"}\n";
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        }
    };
    let _ = stream.write_all(response.as_bytes());
}
