"""SQL front end: lexer, AST and recursive-descent parser."""

from .lexer import Token, TokenType, tokenize
from .parser import Parser, parse
from . import ast_nodes as ast

__all__ = ["Token", "TokenType", "tokenize", "Parser", "parse", "ast"]
