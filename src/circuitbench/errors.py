"""Shared exception types, the argument and budget checks, and the integer token readers."""

import re

_DECIMAL = re.compile(r"-?[0-9]+")


class ParseError(ValueError):
    """Malformed circuit, system, chain or matrix text.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def content_lines(lines, first_line=1):
    """Yield (lineno, content) for each line with text outside a '#' comment.

    `content` is the line with its comment and surrounding whitespace
    removed; `lines[0]` is numbered `first_line`.
    """
    for lineno, raw in enumerate(lines, start=first_line):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def parse_int(token, message, line):
    """The value of a `<signed decimal>` token, `-?[0-9]+` in ASCII digits, or
    ParseError(message, line) for any other token."""
    try:
        if _DECIMAL.fullmatch(token):
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(message, line)


def parse_count(tokens, keyword, line, expected):
    """The k >= 0 of the `<keyword> <k>` header split into `tokens`; a header
    of another shape raises `expected`, a non-integer k "bad <keyword> count"."""
    if len(tokens) != 2 or tokens[0] != keyword:
        raise ParseError(expected, line)
    count = parse_int(tokens[1], f"bad {keyword} count", line)
    if count < 0:
        raise ParseError(f"{keyword} must be >= 0", line)
    return count


def at_least(name, value, low):
    """The package's one lower-bound refusal: ValueError("<name> must be >=
    <low>, got <value>") when `value` is below `low`."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def capped_power(base, exp, budget):
    """base ** exp for base >= 0, with exp capped at the budget's bit length:
    past it both powers exceed the budget, so comparing the capped one with
    the budget gives the same answer without forming a huge number."""
    return base ** min(exp, max(budget, 1).bit_length())


DEFAULT_SOLVE_BUDGET = 10**8  # assignments, evaluations or hash rows one command may spend


class BudgetError(RuntimeError):
    """A named budget was exceeded: raised by `charge` instead of truncating or
    returning a partial (wrong) answer.  `reached` records how far the work got."""

    def __init__(self, message, reached=None):
        super().__init__(message)
        self.reached = reached


def charge(name, budget, work, what):
    """The package's one budget refusal: BudgetError("<what> exceed the <name>
    budget <budget>", reached=work) when `work` is over `budget`."""
    if work > budget:
        raise BudgetError(f"{what} exceed the {name} budget {budget}", reached=work)


class EmbeddingError(RuntimeError):
    """A universal-template embedding failed its identity verification.

    This always indicates a bug in the embedding construction and is never
    swallowed.
    """
