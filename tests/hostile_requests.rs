//! Hostile requests against a real `damocles_server` process over TCP.
//! A request that overflowed the server's stack would abort the whole
//! process, so these run the binary rather than an in-process listener.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use damocles::core::engine::api::{Request, Response};
use damocles::core::ApiError;

/// A spawned `damocles_server`, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(tag: &str) -> Server {
    let dir = std::env::temp_dir().join(format!("damocles-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let blueprint = dir.join("start.bp");
    std::fs::write(&blueprint, "blueprint start view a endview endblueprint").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_damocles_server"))
        .arg(&blueprint)
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn damocles_server");
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let banner = lines
        .by_ref()
        .map_while(Result::ok)
        .find(|l| l.starts_with("listening on "))
        .expect("the server printed its address");
    let addr = banner.split(' ').nth(2).unwrap().to_string();
    std::thread::spawn(move || lines.for_each(drop));
    Server { child, addr }
}

/// One connection: sends a request line, reads its one reply line.
struct Client {
    stream: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(&server.addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let replies = BufReader::new(stream.try_clone().unwrap());
        Client { stream, replies }
    }

    fn call(&mut self, request: &Request) -> Response {
        writeln!(self.stream, "{}", request.encode()).unwrap();
        let mut line = String::new();
        self.replies.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "one reply line, got {line:?}");
        Response::decode(line.trim_end()).unwrap()
    }

    fn assert_alive(&mut self) {
        let reply = self.call(&Request::Stat);
        assert!(matches!(reply, Response::Stat { .. }), "{reply:?}");
    }
}

#[test]
fn deeply_nested_blueprints_get_one_error_and_the_connection_lives() {
    let server = spawn_server("nesting");
    let mut client = Client::connect(&server);
    let n = 100_000;
    let deep = [
        format!("{}x{}", "(".repeat(n), ")".repeat(n)),
        format!("{}x", "not ".repeat(n)),
        format!("x{}", " or x".repeat(n)),
    ];
    for expr in deep {
        let source = format!("blueprint deep view a let y = {expr} endview endblueprint");
        for request in [
            Request::Init {
                source: source.clone(),
            },
            Request::Reinit {
                source: source.clone(),
            },
        ] {
            match client.call(&request) {
                Response::Error(ApiError::BlueprintSyntax { message }) => {
                    assert!(message.contains("nests deeper than 256"), "{message}");
                }
                other => panic!("{other:?}"),
            }
            client.assert_alive();
        }
    }
}

#[test]
fn loading_a_file_that_is_not_an_image_names_the_image_format_and_line() {
    let server = spawn_server("load");
    let mut client = Client::connect(&server);
    let dir = std::env::temp_dir().join(format!("damocles-hostile-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text, line) in [
        ("text.txt", "hello world\nsecond line\n", "hello world"),
        (
            "record.ddb",
            "damocles-db v1\noid a,b,1\nmystery x\n",
            "mystery x",
        ),
        (
            "data.ddb",
            "damocles-db v1\ndata a,b,1 00\n",
            "data a,b,1 00",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let request = Request::LoadProject {
            path: path.display().to_string(),
        };
        match client.call(&request) {
            Response::Error(ApiError::Meta { reason }) => {
                assert!(reason.contains("damocles-db image"), "{reason}");
                assert!(reason.contains(&format!("`{line}`")), "{reason}");
                assert!(!reason.contains("postEvent"), "{reason}");
            }
            other => panic!("{name}: {other:?}"),
        }
        client.assert_alive();
    }
}

#[test]
fn loading_a_device_or_a_directory_is_refused_at_once_and_save_is_atomic() {
    let server = spawn_server("devices");
    let mut client = Client::connect(&server);
    let dir = std::env::temp_dir().join(format!("damocles-hostile-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for path in ["/dev/zero".to_string(), dir.display().to_string()] {
        let started = Instant::now();
        let request = Request::LoadProject { path: path.clone() };
        match client.call(&request) {
            Response::Error(ApiError::Io { reason }) => {
                assert!(reason.contains(&path), "{reason}");
                assert!(reason.contains("not a regular file"), "{reason}");
            }
            other => panic!("{path}: {other:?}"),
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "{path}: {took:?}");
        client.assert_alive();
    }
    // `save` writes atomically and renames over nothing but a file.
    let path = dir.display().to_string();
    match client.call(&Request::SaveProject { path: path.clone() }) {
        Response::Error(ApiError::Io { reason }) => assert!(reason.contains(&path), "{reason}"),
        other => panic!("{other:?}"),
    }
    assert!(dir.is_dir());
    assert!(!dir.with_extension("tmp").exists(), "no temporary sibling");
    let image = dir.join("saved.ddb");
    let request = Request::SaveProject {
        path: image.display().to_string(),
    };
    assert!(matches!(client.call(&request), Response::Ok));
    let text = std::fs::read_to_string(&image).unwrap();
    assert!(text.starts_with("damocles-db"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
