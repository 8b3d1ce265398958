#!/usr/bin/env python3
"""Replay a feed file on stdout at a steady pace, like a live monitor.

Writes BURST lines, flushes, sleeps 1 ms, and repeats until the file
ends. The default (1 line per tick) replays about a thousand lines a
second; pipe the output into `irma watch --feed -`.

Usage: python3 scripts/pace_feed.py FEED [--burst N]
"""

import argparse
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("feed", help="file of feed lines to replay")
    parser.add_argument("--burst", type=int, default=1, help="lines per tick")
    args = parser.parse_args()
    with open(args.feed, encoding="utf-8") as feed:
        lines = feed.readlines()
    for start in range(0, len(lines), args.burst):
        sys.stdout.writelines(lines[start : start + args.burst])
        sys.stdout.flush()
        time.sleep(0.001)


if __name__ == "__main__":
    main()
